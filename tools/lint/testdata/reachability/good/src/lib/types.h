#ifndef MARAS_LIB_TYPES_H_
#define MARAS_LIB_TYPES_H_

namespace lib {
struct Value {
  int value = 0;
};
}  // namespace lib

#endif  // MARAS_LIB_TYPES_H_
