// Reaches lib/api.h; api.h reaches lib/types.h and api.cc reaches
// lib/detail.h.
#include "lib/api.h"

int main() { return lib::Answer().value == 42 ? 0 : 1; }
