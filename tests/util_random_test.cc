#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace maras {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(21);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(33);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(3.5);
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(77);
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(120.0);
  EXPECT_NEAR(sum / n, 120.0, 2.0);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(55);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// Counts of `draws` samples per rank.
std::vector<int> SampleCounts(const ZipfTable& zipf, int draws, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> counts(zipf.size(), 0);
  for (int i = 0; i < draws; ++i) ++counts[zipf.Sample(&rng)];
  return counts;
}

TEST(ZipfTest, UniformWhenExponentZero) {
  const std::vector<int> counts = SampleCounts(ZipfTable(4, 0.0), 40000, 3);
  for (int count : counts) EXPECT_NEAR(count, 10000, 500);
}

TEST(ZipfTest, SmallRanksMoreLikely) {
  const std::vector<int> counts = SampleCounts(ZipfTable(100, 1.1), 100000, 8);
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(ZipfTest, SampleWithinRangeAndSkewed) {
  ZipfTable zipf(20, 1.2);
  Rng rng(99);
  std::vector<int> counts(20, 0);
  for (int i = 0; i < 20000; ++i) {
    size_t k = zipf.Sample(&rng);
    ASSERT_LT(k, 20u);
    ++counts[k];
  }
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[0], counts[19] * 5);
}

TEST(ZipfTest, SingleRank) {
  ZipfTable zipf(1, 2.0);
  Rng rng(4);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(&rng), 0u);
}

}  // namespace
}  // namespace maras
