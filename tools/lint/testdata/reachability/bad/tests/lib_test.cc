// A test keeps nothing alive: lib/test_only.h must still fire.
#include "lib/api.h"
#include "lib/test_only.h"

int main() { return lib::Answer() == 42 && lib::kTestOnly == 1 ? 0 : 1; }
