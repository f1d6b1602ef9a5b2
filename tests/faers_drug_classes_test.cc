#include "faers/drug_classes.h"

#include "faers/vocabulary.h"

#include <gtest/gtest.h>

#include <set>

#include "core/analyzer.h"
#include "test_util.h"

namespace maras::faers {
namespace {

TEST(ClassMapTest, CuratedLookups) {
  ClassMap map = ClassMap::Curated();
  EXPECT_EQ(map.Lookup("ASPIRIN"), "NSAID");
  EXPECT_EQ(map.Lookup("WARFARIN"), "ANTICOAGULANT");
  EXPECT_EQ(map.Lookup("PRILOSEC"), "PPI");
  EXPECT_EQ(map.Lookup("DRUG00042"), std::nullopt);
}

TEST(ClassMapTest, CuratedClassesReferenceCuratedDrugs) {
  std::set<std::string> drugs(CuratedDrugNames().begin(),
                              CuratedDrugNames().end());
  for (const DrugClassEntry& entry : CuratedDrugClasses()) {
    EXPECT_TRUE(drugs.count(entry.drug) > 0) << entry.drug;
    EXPECT_FALSE(entry.drug_class.empty());
  }
}

TEST(ClassMapTest, AddOverrides) {
  ClassMap map;
  map.Add("X", "CLASS1");
  map.Add("X", "CLASS2");
  EXPECT_EQ(map.Lookup("X"), "CLASS2");
  EXPECT_EQ(map.size(), 1u);
}

PreprocessResult SmallCorpus() {
  // Two different NSAID × anticoagulant pairs, each too weak alone.
  maras::test::MiniCorpus corpus;
  corpus.Add({{"ASPIRIN", "WARFARIN"}, {"HAEMORRHAGE"}}, 3);
  corpus.Add({{"IBUPROFEN", "RIVAROXABAN"}, {"HAEMORRHAGE"}}, 3);
  corpus.Add({{"ASPIRIN"}, {"NAUSEA"}}, 10);
  corpus.Add({{"IBUPROFEN"}, {"HEADACHE"}}, 10);
  corpus.Add({{"WARFARIN"}, {"DIZZINESS"}}, 10);
  corpus.Add({{"RIVAROXABAN"}, {"RASH"}}, 10);
  corpus.Add({{"DRUG00042"}, {"NAUSEA"}}, 5);  // unclassified
  PreprocessResult result;
  result.items = std::move(corpus.items);
  // MiniCorpus::db can't be moved member-wise; rebuild transactions.
  for (const auto& t : corpus.db.transactions()) {
    result.transactions.Add(t);
    result.primary_ids.push_back(result.primary_ids.size() + 1000);
  }
  return result;
}

TEST(AggregateTest, RewritesDrugsToClasses) {
  PreprocessResult input = SmallCorpus();
  auto output = AggregateToClasses(input, ClassMap::Curated());
  ASSERT_TRUE(output.ok());
  EXPECT_TRUE(output->items.Lookup("CLASS:NSAID").ok());
  EXPECT_TRUE(output->items.Lookup("CLASS:ANTICOAGULANT").ok());
  EXPECT_FALSE(output->items.Lookup("ASPIRIN").ok());
  // Unclassified drugs keep their own names.
  EXPECT_TRUE(output->items.Lookup("DRUG00042").ok());
  // ADRs pass through untouched.
  EXPECT_TRUE(output->items.Lookup("HAEMORRHAGE").ok());
  EXPECT_EQ(output->transactions.size(), input.transactions.size());
  EXPECT_EQ(output->primary_ids, input.primary_ids);
}

TEST(AggregateTest, ClassLevelSupportPoolsMembers) {
  PreprocessResult input = SmallCorpus();
  auto output = AggregateToClasses(input, ClassMap::Curated());
  ASSERT_TRUE(output.ok());
  auto nsaid = output->items.Lookup("CLASS:NSAID");
  auto anticoag = output->items.Lookup("CLASS:ANTICOAGULANT");
  ASSERT_TRUE(nsaid.ok());
  ASSERT_TRUE(anticoag.ok());
  // NSAID appears in 3+3 pair reports + 10+10 singles = 26.
  EXPECT_EQ(output->transactions.ItemSupport(*nsaid), 26u);
  // The class pair pools both drug pairs: support 6.
  EXPECT_EQ(output->transactions.Support(
                mining::MakeItemset({*nsaid, *anticoag})),
            6u);
}

TEST(AggregateTest, ClassLevelSignalBecomesMineable) {
  PreprocessResult input = SmallCorpus();
  // At drug level with min_support 5, neither pair is frequent...
  core::AnalyzerOptions options;
  options.mining.min_support = 5;
  core::MarasAnalyzer analyzer(options);
  auto drug_level = analyzer.Analyze(input);
  ASSERT_TRUE(drug_level.ok());
  for (const auto& mcac : drug_level->mcacs) {
    EXPECT_LT(mcac.target.drugs.size(), 2u)
        << "unexpected drug-level pair cluster";
  }
  // ...but the pooled class-level pair is.
  auto class_level_input = AggregateToClasses(input, ClassMap::Curated());
  ASSERT_TRUE(class_level_input.ok());
  auto class_level = analyzer.Analyze(*class_level_input);
  ASSERT_TRUE(class_level.ok());
  bool found = false;
  auto nsaid = class_level_input->items.Lookup("CLASS:NSAID");
  auto anticoag = class_level_input->items.Lookup("CLASS:ANTICOAGULANT");
  ASSERT_TRUE(nsaid.ok());
  ASSERT_TRUE(anticoag.ok());
  for (const auto& mcac : class_level->mcacs) {
    if (mcac.target.drugs == mining::MakeItemset({*nsaid, *anticoag})) {
      found = true;
      EXPECT_EQ(mcac.target.support, 6u);
      EXPECT_DOUBLE_EQ(mcac.target.confidence, 1.0);
    }
  }
  EXPECT_TRUE(found) << "class-level NSAID+ANTICOAGULANT cluster not mined";
}

TEST(AggregateTest, DuplicateClassMentionsCollapse) {
  maras::test::MiniCorpus corpus;
  // Two NSAIDs in one report -> a single CLASS:NSAID item.
  corpus.Add({{"ASPIRIN", "IBUPROFEN"}, {"NAUSEA"}}, 1);
  PreprocessResult input;
  input.items = std::move(corpus.items);
  for (const auto& t : corpus.db.transactions()) {
    input.transactions.Add(t);
    input.primary_ids.push_back(1);
  }
  auto output = AggregateToClasses(input, ClassMap::Curated());
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->transactions.transaction(0).size(), 2u);  // class + ADR
}

}  // namespace
}  // namespace maras::faers
