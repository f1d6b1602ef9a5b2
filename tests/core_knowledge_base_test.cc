#include "core/knowledge_base.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace maras::core {
namespace {

using maras::test::MiniCorpus;

DrugAdrRule MakeRule(MiniCorpus* corpus, const std::vector<std::string>& drugs,
                     const std::vector<std::string>& adrs) {
  DrugAdrRule rule;
  rule.drugs = corpus->Drugs(drugs);
  rule.adrs = corpus->Adrs(adrs);
  return rule;
}

KnowledgeBase SmallKb() {
  KnowledgeBase kb;
  kb.AddInteraction({"ASPIRIN", "WARFARIN"}, {"HAEMORRHAGE"}, "Chan 1995");
  kb.AddInteraction({"PREVACID", "NEXIUM"}, {"OSTEOPOROSIS"}, "Drugs.com");
  return kb;
}

TEST(KnowledgeBaseTest, KnownInteractionDetected) {
  MiniCorpus corpus;
  KnowledgeBase kb = SmallKb();
  DrugAdrRule rule =
      MakeRule(&corpus, {"ASPIRIN", "WARFARIN"}, {"HAEMORRHAGE"});
  EXPECT_EQ(kb.Classify(rule, corpus.items),
            NoveltyClass::kKnownInteraction);
}

TEST(KnowledgeBaseTest, DocumentedPairInsideMinedTripleIsKnown) {
  MiniCorpus corpus;
  KnowledgeBase kb = SmallKb();
  DrugAdrRule rule = MakeRule(
      &corpus, {"ASPIRIN", "WARFARIN", "METFORMIN"}, {"HAEMORRHAGE"});
  EXPECT_EQ(kb.Classify(rule, corpus.items),
            NoveltyClass::kKnownInteraction);
}

TEST(KnowledgeBaseTest, NovelAdrForKnownCombination) {
  MiniCorpus corpus;
  KnowledgeBase kb = SmallKb();
  DrugAdrRule rule = MakeRule(&corpus, {"ASPIRIN", "WARFARIN"}, {"NAUSEA"});
  EXPECT_EQ(kb.Classify(rule, corpus.items),
            NoveltyClass::kNovelAdrForKnownCombination);
}

TEST(KnowledgeBaseTest, NovelCombination) {
  MiniCorpus corpus;
  KnowledgeBase kb = SmallKb();
  DrugAdrRule rule = MakeRule(&corpus, {"ZOMETA", "PRILOSEC"}, {"PAIN"});
  EXPECT_EQ(kb.Classify(rule, corpus.items),
            NoveltyClass::kNovelCombination);
}

TEST(KnowledgeBaseTest, PartialDrugOverlapIsNotKnown) {
  MiniCorpus corpus;
  KnowledgeBase kb = SmallKb();
  // Only one of the two documented drugs appears.
  DrugAdrRule rule =
      MakeRule(&corpus, {"ASPIRIN", "METFORMIN"}, {"HAEMORRHAGE"});
  EXPECT_EQ(kb.Classify(rule, corpus.items),
            NoveltyClass::kNovelCombination);
}

TEST(KnowledgeBaseTest, MatchingSources) {
  MiniCorpus corpus;
  KnowledgeBase kb = SmallKb();
  DrugAdrRule rule =
      MakeRule(&corpus, {"ASPIRIN", "WARFARIN"}, {"HAEMORRHAGE"});
  auto sources = kb.MatchingSources(rule, corpus.items);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0], "Chan 1995");
  DrugAdrRule unrelated = MakeRule(&corpus, {"ZOMETA"}, {"PAIN"});
  EXPECT_TRUE(kb.MatchingSources(unrelated, corpus.items).empty());
}

TEST(KnowledgeBaseTest, CuratedBaseCoversPaperCases) {
  KnowledgeBase kb = CuratedKnowledgeBase();
  EXPECT_GE(kb.size(), 7u);
  MiniCorpus corpus;
  DrugAdrRule case1 = MakeRule(&corpus, {"IBUPROFEN", "METAMIZOLE"},
                               {"ACUTE RENAL FAILURE"});
  EXPECT_EQ(kb.Classify(case1, corpus.items),
            NoveltyClass::kKnownInteraction);
}

TEST(KnowledgeBaseTest, EmptyBaseClassifiesEverythingNovel) {
  MiniCorpus corpus;
  KnowledgeBase kb;
  DrugAdrRule rule = MakeRule(&corpus, {"A", "B"}, {"X"});
  EXPECT_EQ(kb.Classify(rule, corpus.items),
            NoveltyClass::kNovelCombination);
}

TEST(KnowledgeBaseTest, NoveltyNames) {
  EXPECT_STREQ(NoveltyClassName(NoveltyClass::kKnownInteraction),
               "known interaction");
  EXPECT_STREQ(NoveltyClassName(NoveltyClass::kNovelAdrForKnownCombination),
               "novel ADR for known combination");
  EXPECT_STREQ(NoveltyClassName(NoveltyClass::kNovelCombination),
               "novel combination");
}

}  // namespace
}  // namespace maras::core
