// A fuzzer keeps nothing alive: lib/fuzz_only.h must still fire.
#include "lib/fuzz_only.h"

int main() { return lib::kFuzzOnly == 2 ? 0 : 1; }
