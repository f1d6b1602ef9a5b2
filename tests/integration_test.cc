// End-to-end pipeline test: synthetic FAERS quarter -> ASCII round trip ->
// preprocessing -> mining -> MCAC ranking -> recovery of every injected
// drug-drug-interaction signal (the repository-level acceptance test).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/analyzer.h"
#include "core/export.h"
#include "faers/ascii_format.h"
#include "faers/drug_classes.h"
#include "faers/generator.h"
#include "faers/preprocess.h"
#include "faers/validate.h"
#include "study/user_study.h"
#include "viz/glyph.h"
#include "viz/panorama.h"

namespace maras {
namespace {

faers::GeneratorConfig TestConfig() {
  faers::GeneratorConfig config;
  config.n_reports = 4000;
  config.n_drugs = 600;
  config.n_adrs = 250;
  config.seed = 1234;
  // Strengthen the injected signals (~19 reports each) so every one clears
  // the mining threshold after the EXP filter, penetrance and leakage take
  // their cuts at this deliberately small test scale.
  config.signals = faers::DefaultSignals(config.n_reports * 2);
  return config;
}

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    faers::SyntheticGenerator generator(TestConfig());
    auto dataset = generator.Generate();
    ASSERT_TRUE(dataset.ok());
    dataset_ = new faers::QuarterDataset(*std::move(dataset));
    ground_truth_ = new faers::GroundTruth(generator.ground_truth());

    faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
    auto pre = preprocessor.Process(*dataset_);
    ASSERT_TRUE(pre.ok());
    pre_ = new faers::PreprocessResult(*std::move(pre));

    core::AnalyzerOptions options;
    // At this scale each signal injects ~9 reports, of which the EXP filter
    // keeps ~85%, ADR penetrance ~75%, and leakage drops a few more — the
    // threshold must sit below the surviving count.
    options.mining.min_support = 4;
    options.mining.max_itemset_size = 7;
    core::MarasAnalyzer analyzer(options);
    auto analysis = analyzer.Analyze(*pre_);
    ASSERT_TRUE(analysis.ok());
    analysis_ = new core::AnalysisResult(*std::move(analysis));
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete ground_truth_;
    delete pre_;
    delete analysis_;
  }

  // Finds the best (lowest) rank of an MCAC whose target covers the signal's
  // drugs and at least one of its ADRs.
  static size_t RankOfSignal(const std::vector<core::RankedMcac>& ranked,
                             const faers::SignalSpec& signal) {
    mining::Itemset drugs;
    for (const auto& name : signal.drugs) {
      auto id = pre_->items.Lookup(name);
      if (!id.ok()) return SIZE_MAX;
      drugs.push_back(*id);
    }
    drugs = mining::MakeItemset(std::move(drugs));
    std::set<mining::ItemId> adrs;
    for (const auto& name : signal.adrs) {
      auto id = pre_->items.Lookup(name);
      if (id.ok()) adrs.insert(*id);
    }
    for (size_t i = 0; i < ranked.size(); ++i) {
      const auto& target = ranked[i].mcac.target;
      if (!mining::IsSubset(drugs, target.drugs)) continue;
      bool adr_hit = false;
      for (auto id : target.adrs) adr_hit |= adrs.count(id) > 0;
      if (adr_hit) return i;
    }
    return SIZE_MAX;
  }

  static faers::QuarterDataset* dataset_;
  static faers::GroundTruth* ground_truth_;
  static faers::PreprocessResult* pre_;
  static core::AnalysisResult* analysis_;
};

faers::QuarterDataset* PipelineTest::dataset_ = nullptr;
faers::GroundTruth* PipelineTest::ground_truth_ = nullptr;
faers::PreprocessResult* PipelineTest::pre_ = nullptr;
core::AnalysisResult* PipelineTest::analysis_ = nullptr;

TEST_F(PipelineTest, AsciiFormatRoundTripsGeneratedData) {
  auto files = faers::WriteAsciiQuarter(*dataset_);
  ASSERT_TRUE(files.ok());
  auto parsed = faers::ReadAsciiQuarter(*files, 2014, 1);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->reports.size(), dataset_->reports.size());
  for (size_t i = 0; i < parsed->reports.size(); i += 97) {
    EXPECT_EQ(parsed->Names(parsed->reports[i].drugs),
              dataset_->Names(dataset_->reports[i].drugs));
    EXPECT_EQ(parsed->Names(parsed->reports[i].reactions),
              dataset_->Names(dataset_->reports[i].reactions));
  }
}

TEST_F(PipelineTest, PreprocessingCleansNames) {
  EXPECT_GT(pre_->stats.fuzzy_corrections, 0u);
  EXPECT_GT(pre_->stats.alias_resolutions, 0u);
  EXPECT_GT(pre_->stats.reports_kept, TestConfig().n_reports / 2);
  EXPECT_GT(pre_->stats.dropped_not_expedited, 0u);
  EXPECT_GT(pre_->stats.dropped_stale_version, 0u);
}

TEST_F(PipelineTest, RuleSpaceReductionShape) {
  // Fig. 5.1: each filtering stage shrinks the rule space substantially.
  EXPECT_GT(analysis_->stats.total_rules, analysis_->stats.filtered_rules);
  EXPECT_GT(analysis_->stats.filtered_rules, analysis_->stats.mcac_count);
  EXPECT_GT(analysis_->stats.mcac_count, 0u);
}

TEST_F(PipelineTest, AllInjectedSignalsRecovered) {
  auto ranked = core::RankMcacs(analysis_->mcacs,
                                core::RankingMethod::kExclusivenessConfidence,
                                core::ExclusivenessOptions{});
  for (const auto& signal : ground_truth_->signals) {
    size_t rank = RankOfSignal(ranked, signal);
    EXPECT_NE(rank, SIZE_MAX) << "signal not mined: " << signal.name;
  }
}

TEST_F(PipelineTest, ExclusivenessRanksSignalsAboveMedian) {
  auto ranked = core::RankMcacs(analysis_->mcacs,
                                core::RankingMethod::kExclusivenessConfidence,
                                core::ExclusivenessOptions{});
  ASSERT_GT(ranked.size(), 0u);
  size_t median = ranked.size() / 2;
  size_t above = 0, found = 0;
  for (const auto& signal : ground_truth_->signals) {
    size_t rank = RankOfSignal(ranked, signal);
    if (rank == SIZE_MAX) continue;
    ++found;
    if (rank < median) ++above;
  }
  ASSERT_GT(found, 0u);
  // At this small test scale each signal only has ~6 surviving reports, so
  // context estimates are noisy; still, the large majority of recovered
  // signals must land in the interesting half.
  EXPECT_GE(above * 10, found * 7) << above << " of " << found;
}

TEST_F(PipelineTest, ReportLinkageDrillsDownToRawReports) {
  ASSERT_GT(analysis_->mcacs.size(), 0u);
  const core::Mcac& mcac = analysis_->mcacs.front();
  auto reports = core::SupportingReports(pre_->transactions,
                                         pre_->primary_ids, mcac.target);
  EXPECT_EQ(reports.size(), mcac.target.support);
  // Every linked report must exist in the original dataset.
  std::set<uint64_t> known;
  for (const auto& r : dataset_->reports) known.insert(r.primary_id());
  for (uint64_t id : reports) EXPECT_TRUE(known.count(id) > 0);
}

TEST_F(PipelineTest, GlyphsRenderForTopClusters) {
  auto ranked = core::RankMcacs(analysis_->mcacs,
                                core::RankingMethod::kExclusivenessConfidence,
                                core::ExclusivenessOptions{});
  std::vector<viz::PanoramaEntry> entries;
  for (size_t i = 0; i < std::min<size_t>(10, ranked.size()); ++i) {
    viz::PanoramaEntry entry;
    entry.spec = viz::GlyphSpecFromMcac(ranked[i].mcac, pre_->items);
    entry.score = ranked[i].score;
    entries.push_back(std::move(entry));
  }
  ASSERT_FALSE(entries.empty());
  viz::PanoramaRenderer renderer;
  std::string svg = renderer.Render(entries, "Top clusters").Render();
  EXPECT_GT(svg.size(), 1000u);
  EXPECT_NE(svg.find("<circle"), std::string::npos);
}

TEST_F(PipelineTest, GeneratedDatasetValidatesClean) {
  faers::ValidationReport report = faers::ValidateDataset(*dataset_);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ((report.findings.size() - report.error_count()), 0u);
  EXPECT_EQ(report.reports_checked, dataset_->reports.size());
}

TEST_F(PipelineTest, ClassAggregatedCorpusIsAnalyzable) {
  auto class_input =
      faers::AggregateToClasses(*pre_, faers::ClassMap::Curated());
  ASSERT_TRUE(class_input.ok());
  EXPECT_LT(class_input->stats.distinct_drugs, pre_->stats.distinct_drugs);
  core::AnalyzerOptions options;
  options.mining.min_support = 8;
  core::MarasAnalyzer analyzer(options);
  auto class_analysis = analyzer.Analyze(*class_input);
  ASSERT_TRUE(class_analysis.ok());
  EXPECT_GT(class_analysis->stats.mcac_count, 0u);
}

TEST_F(PipelineTest, JsonExportRoundTripsAndOrdersByRank) {
  core::ExportOptions options;
  options.max_clusters = 25;
  std::string text = core::ExportAnalysisToJson(
      *analysis_, pre_->items,
      core::RankingMethod::kExclusivenessConfidence, {}, options);
  const json::Value doc = core::ExportRankedMcacs(
      core::RankMcacs(analysis_->mcacs,
                      core::RankingMethod::kExclusivenessConfidence, {}),
      pre_->items, analysis_->stats, core::CuratedKnowledgeBase(), options);
  EXPECT_EQ(text, json::Serialize(doc, /*pretty=*/true));
  const auto& clusters = doc.as_object().at("clusters").as_array();
  ASSERT_LE(clusters.size(), 25u);
  double previous = 1e300;
  for (const auto& cluster : clusters) {
    double score = cluster.as_object().at("score").as_number();
    EXPECT_LE(score, previous);
    previous = score;
  }
}

TEST_F(PipelineTest, UserStudyRunsOnMinedClusters) {
  auto ranked = core::RankMcacs(analysis_->mcacs,
                                core::RankingMethod::kExclusivenessConfidence,
                                core::ExclusivenessOptions{});
  auto questions = study::BuildQuestions(ranked, pre_->items, /*decoys=*/3,
                                         /*seed=*/7);
  ASSERT_FALSE(questions.empty());
  study::StudyConfig config;
  config.participants = 30;
  study::UserStudySimulator sim(config);
  auto outcome = sim.Run(questions);
  EXPECT_EQ(outcome.questions.size(), questions.size());
  for (const auto& q : outcome.questions) {
    EXPECT_GE(q.glyph_accuracy, 0.0);
    EXPECT_LE(q.glyph_accuracy, 1.0);
  }
}

}  // namespace
}  // namespace maras
