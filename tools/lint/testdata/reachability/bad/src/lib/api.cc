#include "lib/api.h"

#include "lib/detail.h"

namespace lib {
int Answer() { return kDetail; }
}  // namespace lib
