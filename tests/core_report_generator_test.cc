#include "core/report_generator.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace maras::core {
namespace {

using maras::test::AsthmaCorpus;
using maras::test::MiniCorpus;

struct Fixture {
  MiniCorpus corpus = AsthmaCorpus();
  faers::PreprocessResult pre;
  AnalysisResult analysis;
  std::vector<RankedMcac> ranked;
  KnowledgeBase kb = CuratedKnowledgeBase();

  Fixture() {
    // Add a severe, undocumented signal for the alert section.
    corpus.Add({{"A", "B"}, {"HAEMORRHAGE"}}, 6);
    corpus.Add({{"A"}, {"RASH"}}, 9);
    corpus.Add({{"B"}, {"RASH"}}, 9);
    pre.items = std::move(corpus.items);
    for (const auto& t : corpus.db.transactions()) {
      pre.transactions.Add(t);
      pre.primary_ids.push_back(pre.primary_ids.size() + 1);
    }
    pre.stats.reports_in = pre.transactions.size();
    pre.stats.reports_kept = pre.transactions.size();
    AnalyzerOptions options;
    options.mining.min_support = 2;
    MarasAnalyzer analyzer(options);
    auto result = analyzer.Analyze(pre.items, pre.transactions);
    EXPECT_TRUE(result.ok());
    analysis = *std::move(result);
    ranked = RankMcacs(analysis.mcacs,
                       RankingMethod::kExclusivenessConfidence, {});
  }

  ReportInputs Inputs() {
    ReportInputs inputs;
    inputs.current = &pre;
    inputs.analysis = &analysis;
    inputs.ranked = &ranked;
    inputs.knowledge_base = &kb;
    return inputs;
  }
};

TEST(ReportGeneratorTest, IncompleteInputsRejected) {
  ReportInputs empty;
  EXPECT_TRUE(
      GenerateMarkdownReport(empty).status().IsInvalidArgument());
}

TEST(ReportGeneratorTest, ContainsHeadlineSections) {
  Fixture f;
  auto md = GenerateMarkdownReport(f.Inputs());
  ASSERT_TRUE(md.ok());
  EXPECT_NE(md->find("# MARAS quarterly surveillance report"),
            std::string::npos);
  EXPECT_NE(md->find("## Top interaction signals"), std::string::npos);
  EXPECT_NE(md->find("## Severe, previously undocumented signals"),
            std::string::npos);
  EXPECT_NE(md->find("contextual clusters"), std::string::npos);
  // Table rows carry the triage columns.
  EXPECT_NE(md->find("| severity | novelty |"), std::string::npos);
}

TEST(ReportGeneratorTest, AlertsSectionFlagsSevereNovelSignal) {
  Fixture f;
  auto md = GenerateMarkdownReport(f.Inputs());
  ASSERT_TRUE(md.ok());
  // The injected A+B => HAEMORRHAGE cluster is severe and unknown to the
  // curated knowledge base.
  EXPECT_NE(md->find("[A] [B] => [HAEMORRHAGE]** (rank"), std::string::npos);
  EXPECT_NE(md->find("needs review"), std::string::npos);
}

TEST(ReportGeneratorTest, TopSignalsCapRespected) {
  Fixture f;
  ReportOptions options;
  options.top_signals = 1;
  auto md = GenerateMarkdownReport(f.Inputs(), options);
  ASSERT_TRUE(md.ok());
  EXPECT_NE(md->find("| 1 | "), std::string::npos);
  EXPECT_EQ(md->find("| 2 | "), std::string::npos);
}

TEST(ReportGeneratorTest, WatchlistSectionRendersTrends) {
  Fixture f;
  ReportInputs inputs = f.Inputs();
  WatchlistEntry entry;
  entry.label = "A + B";
  QuarterlySignalTrend q1;
  q1.label = "Q1";
  q1.combination_reports = 10;
  q1.reports = 2;
  q1.confidence = 0.2;
  QuarterlySignalTrend q2 = q1;
  q2.label = "Q2";
  q2.reports = 6;
  q2.confidence = 0.6;
  entry.trend = {q1, q2};
  inputs.watchlist.push_back(entry);
  auto md = GenerateMarkdownReport(inputs);
  ASSERT_TRUE(md.ok());
  EXPECT_NE(md->find("## Watched combinations"), std::string::npos);
  EXPECT_NE(md->find("| A + B | 0.20 | 0.60 | emerging |"),
            std::string::npos);
}

TEST(ReportGeneratorTest, NoAlertsFallbackLine) {
  Fixture f;
  ReportOptions options;
  options.alert_severity = Severity::kFatal;  // nothing qualifies
  auto md = GenerateMarkdownReport(f.Inputs(), options);
  ASSERT_TRUE(md.ok());
  EXPECT_NE(md->find("- none this quarter"), std::string::npos);
}

}  // namespace
}  // namespace maras::core
