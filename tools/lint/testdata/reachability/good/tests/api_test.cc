// Tests may include reached headers too.
#include "lib/api.h"

int main() { return lib::Answer().value == 42 ? 0 : 1; }
