#include "util/backoff.h"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

namespace maras {
namespace {

using std::chrono::milliseconds;

std::vector<milliseconds> DelaySequence(const BackoffPolicy& policy,
                                        size_t n) {
  Backoff backoff(policy);
  std::vector<milliseconds> out;
  for (size_t attempt = 0; attempt < n; ++attempt) {
    out.push_back(backoff.Delay(attempt));
  }
  return out;
}

TEST(BackoffTest, SameSeedReproducesExactDelaySequence) {
  BackoffPolicy policy;
  policy.seed = 42;
  EXPECT_EQ(DelaySequence(policy, 12), DelaySequence(policy, 12))
      << "backoff must be a pure function of the policy seed";
}

TEST(BackoffTest, DifferentSeedsProduceDifferentJitter) {
  BackoffPolicy a;
  a.seed = 1;
  BackoffPolicy b;
  b.seed = 2;
  // With 20% jitter over 12 draws, two independent streams colliding on
  // every draw would require astronomical luck; a full match means the
  // seed is being ignored.
  EXPECT_NE(DelaySequence(a, 12), DelaySequence(b, 12));
}

TEST(BackoffTest, ZeroJitterGrowsExponentiallyFromBase) {
  BackoffPolicy policy;
  policy.base = milliseconds(100);
  policy.multiplier = 2.0;
  policy.max_delay = milliseconds(100000);
  policy.jitter = 0.0;
  Backoff backoff(policy);
  EXPECT_EQ(backoff.Delay(0), milliseconds(100));
  EXPECT_EQ(backoff.Delay(1), milliseconds(200));
  EXPECT_EQ(backoff.Delay(2), milliseconds(400));
  EXPECT_EQ(backoff.Delay(5), milliseconds(3200));
}

TEST(BackoffTest, DelayNeverExceedsMaxEvenForHugeAttemptCounts) {
  BackoffPolicy policy;
  policy.base = milliseconds(100);
  policy.multiplier = 10.0;
  policy.max_delay = milliseconds(750);
  Backoff backoff(policy);
  for (size_t attempt : {size_t{0}, size_t{3}, size_t{60}, size_t{100000}}) {
    EXPECT_LE(backoff.Delay(attempt), policy.max_delay) << attempt;
  }
}

TEST(BackoffTest, JitterOnlyShortensWithinTheDocumentedWindow) {
  BackoffPolicy policy;
  policy.base = milliseconds(1000);
  policy.multiplier = 1.0;  // hold the raw delay constant across attempts
  policy.max_delay = milliseconds(10000);
  policy.jitter = 0.25;
  Backoff backoff(policy);
  for (size_t attempt = 0; attempt < 64; ++attempt) {
    milliseconds d = backoff.Delay(attempt);
    EXPECT_GE(d, milliseconds(750)) << attempt;
    EXPECT_LE(d, milliseconds(1000)) << attempt;
  }
}

TEST(BackoffTest, EnablingJitterDoesNotShiftTheDrawStream) {
  // Delay() consumes exactly one rng draw per call regardless of jitter, so
  // a jitter=0 replay of the same seed stays aligned: every delay equals
  // the raw exponential value while the draw count still advances.
  BackoffPolicy plain;
  plain.jitter = 0.0;
  plain.seed = 7;
  Backoff backoff(plain);
  (void)backoff.Delay(0);
  (void)backoff.Delay(1);
  EXPECT_EQ(backoff.Delay(2), milliseconds(400))
      << "draws under jitter=0 must not perturb the deterministic schedule";
}

}  // namespace
}  // namespace maras
