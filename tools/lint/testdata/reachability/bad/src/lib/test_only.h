#ifndef MARAS_LIB_TEST_ONLY_H_
#define MARAS_LIB_TEST_ONLY_H_

// Fires: only tests/ include it.
namespace lib {
constexpr int kTestOnly = 1;
}  // namespace lib

#endif  // MARAS_LIB_TEST_ONLY_H_
