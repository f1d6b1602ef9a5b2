#include "tests/oracles/support_classifier.h"

#include <gtest/gtest.h>

#include "mining/closed_itemsets.h"
#include "mining/fpgrowth.h"
#include "util/random.h"

namespace maras::core {
namespace {

using mining::Itemset;
using mining::TransactionDatabase;

TEST(SupportClassifierTest, ExplicitWhenReportMatchesExactly) {
  TransactionDatabase db;
  db.Add({1, 2, 5});
  db.Add({1, 2, 5, 7});
  EXPECT_EQ(ClassifySupport(db, {1, 2, 5}), SupportKind::kExplicit);
}

TEST(SupportClassifierTest, ImplicitWhenPinnedByIntersection) {
  // No report equals {1,2,5} but the two containing reports intersect to it.
  TransactionDatabase db;
  db.Add({1, 2, 5, 7});
  db.Add({1, 2, 5, 9});
  EXPECT_EQ(ClassifySupport(db, {1, 2, 5}), SupportKind::kImplicit);
}

TEST(SupportClassifierTest, UnsupportedPartialAssociation) {
  // {1,2} only ever occurs inside {1,2,5}: a type-3 partial association.
  TransactionDatabase db;
  db.Add({1, 2, 5});
  db.Add({1, 2, 5});
  EXPECT_EQ(ClassifySupport(db, {1, 2}), SupportKind::kUnsupported);
}

TEST(SupportClassifierTest, AbsentItemset) {
  TransactionDatabase db;
  db.Add({1, 2});
  EXPECT_EQ(ClassifySupport(db, {3}), SupportKind::kAbsent);
  EXPECT_EQ(ClassifySupport(db, {1, 3}), SupportKind::kAbsent);
}

TEST(SupportClassifierTest, SingleContainingReportMustMatchExactly) {
  TransactionDatabase db;
  db.Add({1, 2, 3});
  EXPECT_EQ(ClassifySupport(db, {1, 2}), SupportKind::kUnsupported);
  EXPECT_EQ(ClassifySupport(db, {1, 2, 3}), SupportKind::kExplicit);
}

TEST(SupportClassifierTest, PaperSection33Example) {
  // Report 1: drugs {d1,d2}=items {1,2}, ADRs {a1,a2}=items {10,11}.
  // R2 ≡ d1 => a2 ({1,11}) is misleading from report 1 alone...
  TransactionDatabase db;
  db.Add({1, 2, 10, 11});
  EXPECT_EQ(ClassifySupport(db, {1, 11}), SupportKind::kUnsupported);
  // ...but a second report {d1,d5,d6},{a2,a3,a7} legitimizes it.
  db.Add({1, 5, 6, 11, 12, 13});
  EXPECT_EQ(ClassifySupport(db, {1, 11}), SupportKind::kImplicit);
}

TEST(SupportClassifierTest, Lemma342ClosedImpliesSupported) {
  // Property test of the paper's Lemma 3.4.2 under the closure
  // interpretation: every closed frequent itemset is supported.
  maras::Rng rng(303);
  for (int trial = 0; trial < 8; ++trial) {
    TransactionDatabase db;
    for (int t = 0; t < 70; ++t) {
      Itemset txn;
      for (size_t i = 1 + rng.Uniform(5); i > 0; --i) {
        txn.push_back(static_cast<mining::ItemId>(rng.Uniform(9)));
      }
      db.Add(std::move(txn));
    }
    auto closed =
        mining::MineClosed(db, mining::MiningOptions{.min_support = 1});
    ASSERT_TRUE(closed.ok());
    for (const auto& fi : closed->itemsets()) {
      EXPECT_TRUE(IsSupported(db, fi.items)) << mining::ToString(fi.items);
    }
  }
}

TEST(SupportClassifierTest, NonClosedFrequentItemsetsAreUnsupported) {
  // The converse direction on a crafted database: the partial itemset is
  // non-closed and classified unsupported.
  TransactionDatabase db;
  db.Add({1, 2, 3});
  db.Add({1, 2, 3});
  db.Add({4, 5});
  EXPECT_FALSE(IsSupported(db, {1, 2}));
  EXPECT_FALSE(mining::IsClosedInDatabase(db, {1, 2}));
}

TEST(PairwiseWitnessTest, StricterThanClosure) {
  // Three reports pin {1} down jointly (closure == {1}) but no PAIR
  // intersects to exactly {1} — the distinction the header documents.
  TransactionDatabase db;
  db.Add({1, 2, 3});
  db.Add({1, 2, 4});
  db.Add({1, 3, 4});
  EXPECT_EQ(ClassifySupport(db, {1}), SupportKind::kImplicit);
  EXPECT_FALSE(HasPairwiseWitness(db, {1}));
}

TEST(PairwiseWitnessTest, FindsWitnessWhenPresent) {
  TransactionDatabase db;
  db.Add({1, 2, 7});
  db.Add({1, 2, 9});
  EXPECT_TRUE(HasPairwiseWitness(db, {1, 2}));
}

TEST(SupportKindNameTest, AllNamed) {
  EXPECT_STREQ(SupportKindName(SupportKind::kExplicit), "explicit");
  EXPECT_STREQ(SupportKindName(SupportKind::kImplicit), "implicit");
  EXPECT_STREQ(SupportKindName(SupportKind::kUnsupported), "unsupported");
  EXPECT_STREQ(SupportKindName(SupportKind::kAbsent), "absent");
}

}  // namespace
}  // namespace maras::core
