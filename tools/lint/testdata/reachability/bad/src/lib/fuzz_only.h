#ifndef MARAS_LIB_FUZZ_ONLY_H_
#define MARAS_LIB_FUZZ_ONLY_H_

// Fires: only fuzz/ includes it.
namespace lib {
constexpr int kFuzzOnly = 2;
}  // namespace lib

#endif  // MARAS_LIB_FUZZ_ONLY_H_
