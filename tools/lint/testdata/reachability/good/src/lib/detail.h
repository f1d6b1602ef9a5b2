#ifndef MARAS_LIB_DETAIL_H_
#define MARAS_LIB_DETAIL_H_

namespace lib {
constexpr int kDetail = 42;
}  // namespace lib

#endif  // MARAS_LIB_DETAIL_H_
