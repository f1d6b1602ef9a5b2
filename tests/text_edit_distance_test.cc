#include "text/edit_distance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "util/random.h"

namespace maras::text {
namespace {

// Plain Levenshtein distance (no transpositions): the reference Damerau–
// Levenshtein must never exceed.
size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  std::vector<size_t> prev(a.size() + 1), cur(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    cur[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      const size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[a.size()];
}

TEST(DamerauTest, TranspositionCostsOne) {
  // Plain Levenshtein needs 2 edits for an adjacent swap.
  EXPECT_EQ(LevenshteinDistance("ASPIRIN", "APSIRIN"), 2u);
  EXPECT_EQ(DamerauLevenshteinDistance("ASPIRIN", "APSIRIN"), 1u);
}

TEST(DamerauTest, KnownDistances) {
  EXPECT_EQ(DamerauLevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(DamerauLevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(DamerauLevenshteinDistance("ca", "abc"), 3u);  // classic example
  EXPECT_EQ(DamerauLevenshteinDistance("warfarin", "warfarin"), 0u);
  EXPECT_EQ(DamerauLevenshteinDistance("XOLAIR", "XOLIAR"), 1u);
}

TEST(DamerauTest, NeverExceedsLevenshtein) {
  maras::Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    std::string a, b;
    for (size_t i = rng.Uniform(10); i > 0; --i) {
      a += static_cast<char>('A' + rng.Uniform(5));
    }
    for (size_t i = rng.Uniform(10); i > 0; --i) {
      b += static_cast<char>('A' + rng.Uniform(5));
    }
    EXPECT_LE(DamerauLevenshteinDistance(a, b), LevenshteinDistance(a, b))
        << a << " vs " << b;
  }
}

TEST(DamerauTest, TriangleInequalityOnRandomStrings) {
  maras::Rng rng(29);
  for (int trial = 0; trial < 100; ++trial) {
    std::string s[3];
    for (auto& str : s) {
      for (size_t i = 1 + rng.Uniform(8); i > 0; --i) {
        str += static_cast<char>('A' + rng.Uniform(4));
      }
    }
    size_t ab = DamerauLevenshteinDistance(s[0], s[1]);
    size_t bc = DamerauLevenshteinDistance(s[1], s[2]);
    size_t ac = DamerauLevenshteinDistance(s[0], s[2]);
    EXPECT_LE(ac, ab + bc);
  }
}

TEST(BoundedTest, AgreesWithinBound) {
  maras::Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    std::string a, b;
    for (size_t i = rng.Uniform(12); i > 0; --i) {
      a += static_cast<char>('A' + rng.Uniform(6));
    }
    for (size_t i = rng.Uniform(12); i > 0; --i) {
      b += static_cast<char>('A' + rng.Uniform(6));
    }
    size_t exact = DamerauLevenshteinDistance(a, b);
    for (size_t bound : {1u, 2u, 4u}) {
      size_t bounded = BoundedDamerauLevenshtein(a, b, bound);
      if (exact <= bound) {
        EXPECT_EQ(bounded, exact) << a << " vs " << b;
      } else {
        EXPECT_GT(bounded, bound) << a << " vs " << b;
      }
    }
  }
}

TEST(BoundedTest, LengthGapShortCircuits) {
  EXPECT_GT(BoundedDamerauLevenshtein("AB", "ABCDEFG", 2), 2u);
}

using DistanceCase = std::tuple<std::string, std::string, size_t>;

class DamerauParamTest : public ::testing::TestWithParam<DistanceCase> {};

TEST_P(DamerauParamTest, MatchesExpected) {
  const auto& [a, b, expected] = GetParam();
  EXPECT_EQ(DamerauLevenshteinDistance(a, b), expected);
}

INSTANTIATE_TEST_SUITE_P(
    DrugNameTypos, DamerauParamTest,
    ::testing::Values(
        DistanceCase{"WARFARIN", "WARFRIN", 1},    // dropped letter
        DistanceCase{"NEXIUM", "NEXUIM", 1},       // transposition
        DistanceCase{"PRILOSEC", "PRILOSECC", 1},  // duplicated letter
        DistanceCase{"ZANTAC", "XANTAC", 1},       // substitution
        DistanceCase{"METAMIZOLE", "METAMIZOL", 1},
        DistanceCase{"IBUPROFEN", "IBUPROFIN", 1},
        DistanceCase{"PREDNISONE", "PREDNISOLONE", 2},
        DistanceCase{"ASPIRIN", "WARFARIN", 4}));

}  // namespace
}  // namespace maras::text
