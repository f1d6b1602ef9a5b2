#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace maras::stats {

Interval WilsonInterval(size_t successes, size_t trials, double z) {
  if (trials == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denominator = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denominator;
  const double margin =
      (z / denominator) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return {std::max(0.0, center - margin), std::min(1.0, center + margin)};
}

}  // namespace maras::stats
