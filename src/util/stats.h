#ifndef MARAS_UTIL_STATS_H_
#define MARAS_UTIL_STATS_H_

#include <cstddef>

namespace maras::stats {

// Wilson score interval for a binomial proportion — the right interval for
// user-study accuracies at n = 50 where the normal approximation is poor.
struct Interval {
  double lower = 0.0;
  double upper = 0.0;
};
// `successes` out of `trials` at confidence z (1.96 ≈ 95%).
Interval WilsonInterval(size_t successes, size_t trials, double z = 1.96);

}  // namespace maras::stats

#endif  // MARAS_UTIL_STATS_H_
