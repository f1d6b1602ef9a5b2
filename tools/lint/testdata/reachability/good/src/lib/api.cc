#include "lib/api.h"

#include "lib/detail.h"

namespace lib {
Value Answer() { return Value{kDetail}; }
}  // namespace lib
