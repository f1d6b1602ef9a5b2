#include "mining/measures.h"

namespace maras::mining {

double Confidence(size_t support_ab, size_t support_a) {
  if (support_a == 0) return 0.0;
  return static_cast<double>(support_ab) / static_cast<double>(support_a);
}

double Lift(size_t support_ab, size_t support_a, size_t support_b, size_t n) {
  if (support_a == 0 || support_b == 0 || n == 0) return 0.0;
  return (static_cast<double>(support_ab) * static_cast<double>(n)) /
         (static_cast<double>(support_a) * static_cast<double>(support_b));
}

}  // namespace maras::mining
