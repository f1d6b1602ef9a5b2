#ifndef MARAS_LIB_KEPT_H_
#define MARAS_LIB_KEPT_H_

// Only tests/ include it: fires under the empty allowlist, quiet when
// the allowlist names it.
namespace lib {
constexpr int kKept = 4;
}  // namespace lib

#endif  // MARAS_LIB_KEPT_H_
