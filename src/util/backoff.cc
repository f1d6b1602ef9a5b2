#include "util/backoff.h"

#include <algorithm>
#include <cmath>

namespace maras {

std::chrono::milliseconds Backoff::Delay(size_t attempt) {
  const double cap = static_cast<double>(policy_.max_delay.count());
  double raw = static_cast<double>(policy_.base.count());
  // Multiply stepwise with an early cap so a large attempt count cannot
  // overflow to inf * 0-jitter weirdness.
  for (size_t i = 0; i < attempt && raw < cap; ++i) {
    raw *= policy_.multiplier;
  }
  raw = std::min(raw, cap);
  const double jitter = std::clamp(policy_.jitter, 0.0, 1.0);
  // One draw per call even when jitter is 0, so enabling jitter never
  // shifts the rest of a replayed sequence.
  const double u = rng_.NextDouble();
  double jittered = raw * (1.0 - jitter * u);
  jittered = std::clamp(jittered, 0.0, cap);
  return std::chrono::milliseconds(static_cast<int64_t>(jittered));
}

}  // namespace maras
