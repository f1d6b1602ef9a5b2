#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace maras::stats {
namespace {

TEST(WilsonTest, KnownValue) {
  // 40/50 at 95%: standard worked example, interval ≈ [0.669, 0.887].
  Interval ci = WilsonInterval(40, 50);
  EXPECT_NEAR(ci.lower, 0.669, 0.005);
  EXPECT_NEAR(ci.upper, 0.887, 0.005);
}

TEST(WilsonTest, CoversProportion) {
  for (size_t successes : {0u, 10u, 25u, 49u, 50u}) {
    Interval ci = WilsonInterval(successes, 50);
    double p = static_cast<double>(successes) / 50.0;
    EXPECT_LE(ci.lower, p + 1e-12);
    EXPECT_GE(ci.upper, p - 1e-12);
    EXPECT_GE(ci.lower, 0.0);
    EXPECT_LE(ci.upper, 1.0);
  }
}

TEST(WilsonTest, ExtremesStayInsideUnitInterval) {
  Interval all = WilsonInterval(50, 50);
  EXPECT_LT(all.lower, 1.0);  // never claims certainty
  EXPECT_DOUBLE_EQ(all.upper, 1.0);
  Interval none = WilsonInterval(0, 50);
  EXPECT_DOUBLE_EQ(none.lower, 0.0);
  EXPECT_GT(none.upper, 0.0);
}

TEST(WilsonTest, WidthShrinksWithSampleSize) {
  Interval small = WilsonInterval(7, 10);
  Interval large = WilsonInterval(700, 1000);
  EXPECT_GT(small.upper - small.lower, large.upper - large.lower);
}

TEST(WilsonTest, ZeroTrialsIsVacuous) {
  Interval ci = WilsonInterval(0, 0);
  EXPECT_DOUBLE_EQ(ci.lower, 0.0);
  EXPECT_DOUBLE_EQ(ci.upper, 1.0);
}

}  // namespace
}  // namespace maras::stats
