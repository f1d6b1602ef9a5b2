#include "mining/measures.h"

#include <gtest/gtest.h>

namespace maras::mining {
namespace {

TEST(MeasuresTest, ConfidenceBasics) {
  EXPECT_DOUBLE_EQ(Confidence(50, 100), 0.5);
  EXPECT_DOUBLE_EQ(Confidence(100, 100), 1.0);
  EXPECT_DOUBLE_EQ(Confidence(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(Confidence(5, 0), 0.0);  // degenerate antecedent
}

TEST(MeasuresTest, LiftIndependenceIsOne) {
  // P(A)=0.5, P(B)=0.4, P(AB)=0.2 -> independent.
  EXPECT_DOUBLE_EQ(Lift(20, 50, 40, 100), 1.0);
}

TEST(MeasuresTest, LiftAboveOneForPositiveAssociation) {
  EXPECT_GT(Lift(30, 50, 40, 100), 1.0);
  EXPECT_LT(Lift(10, 50, 40, 100), 1.0);
}

TEST(MeasuresTest, LiftDegenerateCases) {
  EXPECT_DOUBLE_EQ(Lift(1, 0, 5, 100), 0.0);
  EXPECT_DOUBLE_EQ(Lift(1, 5, 0, 100), 0.0);
  EXPECT_DOUBLE_EQ(Lift(1, 5, 5, 0), 0.0);
}

TEST(MeasuresTest, LiftSymmetricInAAndB) {
  EXPECT_DOUBLE_EQ(Lift(12, 30, 45, 200), Lift(12, 45, 30, 200));
}

// Relationship property: lift = confidence / P(B).
TEST(MeasuresTest, LiftEqualsConfidenceOverBaseRate) {
  const size_t ab = 18, a = 40, b = 60, n = 300;
  double lhs = Lift(ab, a, b, n);
  double rhs = Confidence(ab, a) / (static_cast<double>(b) / n);
  EXPECT_NEAR(lhs, rhs, 1e-12);
}

}  // namespace
}  // namespace maras::mining
