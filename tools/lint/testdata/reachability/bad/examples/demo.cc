// The one shipped program: it reaches lib/api.h, and through api.cc,
// lib/detail.h.
#include "lib/api.h"

int main() { return lib::Answer(); }
