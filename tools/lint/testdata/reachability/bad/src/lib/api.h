#ifndef MARAS_LIB_API_H_
#define MARAS_LIB_API_H_

namespace lib {
int Answer();
}  // namespace lib

#endif  // MARAS_LIB_API_H_
