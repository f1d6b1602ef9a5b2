#include "core/drug_adr_rule.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "tests/oracles/rules_database.h"

namespace maras::core {
namespace {

using maras::test::MiniCorpus;

TEST(SplitByDomainTest, PartitionsItems) {
  MiniCorpus corpus;
  auto d1 = corpus.Drug("ASPIRIN");
  auto d2 = corpus.Drug("WARFARIN");
  auto a1 = corpus.Adr("HAEMORRHAGE");
  auto rule = SplitByDomain(mining::MakeItemset({d1, d2, a1}), corpus.items);
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->drugs, mining::MakeItemset({d1, d2}));
  EXPECT_EQ(rule->adrs, mining::MakeItemset({a1}));
}

TEST(SplitByDomainTest, RejectsDrugOnlyItemset) {
  MiniCorpus corpus;
  auto d = corpus.Drug("ASPIRIN");
  EXPECT_TRUE(SplitByDomain({d}, corpus.items).status().IsInvalidArgument());
}

TEST(SplitByDomainTest, RejectsAdrOnlyItemset) {
  MiniCorpus corpus;
  auto a = corpus.Adr("NAUSEA");
  EXPECT_TRUE(SplitByDomain({a}, corpus.items).status().IsInvalidArgument());
}

TEST(BuildRuleTest, FillsMeasuresFromDatabase) {
  MiniCorpus corpus;
  corpus.Add({{"ASPIRIN", "WARFARIN"}, {"HAEMORRHAGE"}}, 8);
  corpus.Add({{"ASPIRIN"}, {"NAUSEA"}}, 12);
  corpus.Add({{"WARFARIN"}, {"HAEMORRHAGE"}}, 4);
  mining::Itemset whole = mining::Union(
      corpus.Drugs({"ASPIRIN", "WARFARIN"}), corpus.Adrs({"HAEMORRHAGE"}));
  auto rule = BuildRule(whole, corpus.items, corpus.db);
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->support, 8u);
  EXPECT_EQ(rule->antecedent_support, 8u);   // pair occurs only together
  EXPECT_EQ(rule->consequent_support, 12u);  // 8 + 4 haemorrhage reports
  EXPECT_DOUBLE_EQ(rule->confidence, 1.0);
  EXPECT_GT(rule->lift, 1.0);
}

TEST(BuildRuleTest, CompleteItemsetRoundTrips) {
  MiniCorpus corpus;
  corpus.Add({{"A", "B"}, {"X"}}, 2);
  mining::Itemset whole =
      mining::Union(corpus.Drugs({"A", "B"}), corpus.Adrs({"X"}));
  auto rule = BuildRule(whole, corpus.items, corpus.db);
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->CompleteItemset(), whole);
}

TEST(RuleToStringTest, RendersNames) {
  MiniCorpus corpus;
  corpus.Add({{"ASPIRIN", "WARFARIN"}, {"HAEMORRHAGE"}});
  mining::Itemset whole = mining::Union(
      corpus.Drugs({"ASPIRIN", "WARFARIN"}), corpus.Adrs({"HAEMORRHAGE"}));
  auto rule = BuildRule(whole, corpus.items, corpus.db);
  ASSERT_TRUE(rule.ok());
  std::string text = RuleToString(*rule, corpus.items);
  EXPECT_NE(text.find("[ASPIRIN]"), std::string::npos);
  EXPECT_NE(text.find("[WARFARIN]"), std::string::npos);
  EXPECT_NE(text.find("=>"), std::string::npos);
  EXPECT_NE(text.find("[HAEMORRHAGE]"), std::string::npos);
}

TEST(ItemDictionaryTest, DomainConflictRejected) {
  mining::ItemDictionary items;
  ASSERT_TRUE(items.Intern("ASPIRIN", mining::ItemDomain::kDrug).ok());
  EXPECT_TRUE(items.Intern("ASPIRIN", mining::ItemDomain::kAdr)
                  .status()
                  .IsInvalidArgument());
}

TEST(ItemDictionaryTest, InternIsIdempotent) {
  mining::ItemDictionary items;
  auto id1 = items.Intern("X", mining::ItemDomain::kDrug);
  auto id2 = items.Intern("X", mining::ItemDomain::kDrug);
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id1, *id2);
  EXPECT_EQ(items.size(), 1u);
}

TEST(ItemDictionaryTest, LookupAndCounts) {
  mining::ItemDictionary items;
  ASSERT_TRUE(items.Intern("D1", mining::ItemDomain::kDrug).ok());
  ASSERT_TRUE(items.Intern("D2", mining::ItemDomain::kDrug).ok());
  ASSERT_TRUE(items.Intern("A1", mining::ItemDomain::kAdr).ok());
  EXPECT_EQ(items.CountInDomain(mining::ItemDomain::kDrug), 2u);
  EXPECT_EQ(items.CountInDomain(mining::ItemDomain::kAdr), 1u);
  EXPECT_TRUE(items.Lookup("MISSING").status().IsNotFound());
  auto id = items.Lookup("D2");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(items.Name(*id), "D2");
}

}  // namespace
}  // namespace maras::core
