#ifndef MARAS_UTIL_BACKOFF_H_
#define MARAS_UTIL_BACKOFF_H_

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "util/random.h"

namespace maras {

// ---------------------------------------------------------------------------
// Deterministic exponential backoff with seeded jitter. Retry storms are a
// classic thundering-herd failure, so every retry in the shard supervisor
// waits base * multiplier^attempt, spread by a jitter drawn from util/random
// — which means a given seed produces the exact same delay sequence on
// every run, keeping the chaos harness reproducible while still
// de-synchronizing real fleets (each shard seeds its own sequence).
// ---------------------------------------------------------------------------

struct BackoffPolicy {
  std::chrono::milliseconds base{100};
  double multiplier = 2.0;
  // Hard cap on any single delay, jitter included.
  std::chrono::milliseconds max_delay{5000};
  // Jitter fraction in [0, 1]: a delay d becomes uniform in
  // [d * (1 - jitter), d], so jitter only ever shortens the wait and the
  // cap above stays authoritative.
  double jitter = 0.2;
  uint64_t seed = 0x9E3779B97F4A7C15ULL;
};

class Backoff {
 public:
  explicit Backoff(const BackoffPolicy& policy)
      : policy_(policy), rng_(policy.seed) {}

  // Delay before retry number `attempt` (0-based: the wait after the first
  // failure is Delay(0)). Each call consumes one jitter draw, so the
  // sequence Delay(0), Delay(1), ... is a pure function of the seed.
  std::chrono::milliseconds Delay(size_t attempt);

  const BackoffPolicy& policy() const { return policy_; }

 private:
  BackoffPolicy policy_;
  Rng rng_;
};

}  // namespace maras

#endif  // MARAS_UTIL_BACKOFF_H_
