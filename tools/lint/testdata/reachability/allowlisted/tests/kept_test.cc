#include "lib/kept.h"

int main() { return lib::kKept == 4 ? 0 : 1; }
