#include "mining/itemset.h"

#include <gtest/gtest.h>

#include <set>

namespace maras::mining {
namespace {

TEST(ItemsetTest, MakeItemsetSortsAndDedups) {
  EXPECT_EQ(MakeItemset({3, 1, 2, 1, 3}), (Itemset{1, 2, 3}));
  EXPECT_EQ(MakeItemset({}), Itemset{});
}

TEST(ItemsetTest, SubsetChecks) {
  EXPECT_TRUE(IsSubset({1, 3}, {1, 2, 3}));
  EXPECT_TRUE(IsSubset({}, {1}));
  EXPECT_TRUE(IsSubset({1, 2, 3}, {1, 2, 3}));
  EXPECT_FALSE(IsSubset({1, 4}, {1, 2, 3}));
  EXPECT_FALSE(IsSubset({1}, {}));
}

TEST(ItemsetTest, SetAlgebra) {
  EXPECT_EQ(Union({1, 3}, {2, 3, 4}), (Itemset{1, 2, 3, 4}));
  EXPECT_EQ(Intersect({1, 2, 3}, {2, 3, 4}), (Itemset{2, 3}));
  EXPECT_EQ(Union({}, {}), Itemset{});
  EXPECT_EQ(Intersect({1}, {2}), Itemset{});
}

TEST(ItemsetTest, ContainsBinarySearch) {
  Itemset s{2, 5, 9};
  EXPECT_TRUE(Contains(s, 5));
  EXPECT_FALSE(Contains(s, 4));
  EXPECT_FALSE(Contains({}, 1));
}

TEST(ItemsetTest, ProperSubsetEnumerationCountAndUniqueness) {
  Itemset s{1, 2, 3, 4};
  std::set<Itemset> seen;
  ForEachProperSubset(s, [&](const Itemset& subset) {
    EXPECT_FALSE(subset.empty());
    EXPECT_LT(subset.size(), s.size());
    EXPECT_TRUE(IsSubset(subset, s));
    EXPECT_TRUE(seen.insert(subset).second) << "duplicate subset";
  });
  EXPECT_EQ(seen.size(), 14u);  // 2^4 − 2
}

TEST(ItemsetTest, ProperSubsetOfSingletonIsEmpty) {
  int count = 0;
  ForEachProperSubset({7}, [&](const Itemset&) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(ItemsetTest, SubsetsAreSorted) {
  ForEachProperSubset({1, 5, 9}, [&](const Itemset& subset) {
    EXPECT_TRUE(std::is_sorted(subset.begin(), subset.end()));
  });
}

TEST(ItemsetTest, HashDistinguishesSets) {
  ItemsetHash hash;
  EXPECT_NE(hash({1, 2}), hash({2, 1, 1}));  // different after canonical form?
  // Canonical equal sets hash equal.
  EXPECT_EQ(hash(MakeItemset({2, 1})), hash(MakeItemset({1, 2})));
  EXPECT_NE(hash({1}), hash({2}));
  EXPECT_NE(hash({}), hash({0}));
}

TEST(ItemsetTest, ToStringFormat) {
  EXPECT_EQ(ToString({1, 2}), "{1, 2}");
  EXPECT_EQ(ToString({}), "{}");
}

}  // namespace
}  // namespace maras::mining
