#ifndef MARAS_LIB_API_H_
#define MARAS_LIB_API_H_

#include "lib/types.h"

namespace lib {
Value Answer();
}  // namespace lib

#endif  // MARAS_LIB_API_H_
