#include "core/multi_quarter.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/analyzer.h"
#include "faers/ascii_format.h"
#include "faers/generator.h"
#include "faers/preprocess.h"

namespace maras::core {
namespace {

faers::PreprocessResult MakeQuarter(int quarter, size_t reports) {
  faers::GeneratorConfig config;
  config.quarter = quarter;
  config.n_reports = reports;
  config.n_drugs = 300;
  config.n_adrs = 150;
  config.seed = 777;
  faers::SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  EXPECT_TRUE(dataset.ok());
  faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
  auto pre = preprocessor.Process(*dataset);
  EXPECT_TRUE(pre.ok());
  return *std::move(pre);
}

class MultiQuarterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    q1_ = new faers::PreprocessResult(MakeQuarter(1, 1500));
    q2_ = new faers::PreprocessResult(MakeQuarter(2, 1500));
  }
  static void TearDownTestSuite() {
    delete q1_;
    delete q2_;
  }
  static faers::PreprocessResult* q1_;
  static faers::PreprocessResult* q2_;
};

faers::PreprocessResult* MultiQuarterTest::q1_ = nullptr;
faers::PreprocessResult* MultiQuarterTest::q2_ = nullptr;

TEST_F(MultiQuarterTest, MergeConcatenatesTransactions) {
  auto merged = MergeQuarters({q1_, q2_});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->transactions.size(),
            q1_->transactions.size() + q2_->transactions.size());
  EXPECT_EQ(merged->primary_ids.size(), merged->transactions.size());
  EXPECT_EQ(merged->stats.reports_kept,
            q1_->stats.reports_kept + q2_->stats.reports_kept);
}

TEST_F(MultiQuarterTest, MergePreservesSupportsByName) {
  auto merged = MergeQuarters({q1_, q2_});
  ASSERT_TRUE(merged.ok());
  // Any drug present in both quarters: merged support == sum of supports.
  for (const char* name : {"ASPIRIN", "WARFARIN", "PROGRAF"}) {
    auto id1 = q1_->items.Lookup(name);
    auto id2 = q2_->items.Lookup(name);
    auto idm = merged->items.Lookup(name);
    ASSERT_TRUE(id1.ok() && id2.ok() && idm.ok()) << name;
    EXPECT_EQ(merged->transactions.ItemSupport(*idm),
              q1_->transactions.ItemSupport(*id1) +
                  q2_->transactions.ItemSupport(*id2))
        << name;
  }
}

TEST_F(MultiQuarterTest, MergePreservesDomains) {
  auto merged = MergeQuarters({q1_, q2_});
  ASSERT_TRUE(merged.ok());
  auto drug = merged->items.Lookup("ASPIRIN");
  ASSERT_TRUE(drug.ok());
  EXPECT_EQ(merged->items.Domain(*drug), mining::ItemDomain::kDrug);
  auto adr = merged->items.Lookup("NAUSEA");
  ASSERT_TRUE(adr.ok());
  EXPECT_EQ(merged->items.Domain(*adr), mining::ItemDomain::kAdr);
}

TEST_F(MultiQuarterTest, MergedCorpusIsAnalyzable) {
  auto merged = MergeQuarters({q1_, q2_});
  ASSERT_TRUE(merged.ok());
  AnalyzerOptions options;
  options.mining.min_support = 6;
  MarasAnalyzer analyzer(options);
  auto analysis = analyzer.Analyze(*merged);
  ASSERT_TRUE(analysis.ok());
  EXPECT_GT(analysis->stats.mcac_count, 0u);
}

TEST(MergeQuartersTest, EmptyInputRejected) {
  EXPECT_TRUE(MergeQuarters({}).status().IsInvalidArgument());
}

TEST_F(MultiQuarterTest, TrackSignalAcrossQuarters) {
  auto trend = TrackSignal({q1_, q2_}, {"2014Q1", "2014Q2"},
                           {"ZOMETA", "PRILOSEC"},
                           {"OSTEONECROSIS OF JAW"});
  ASSERT_EQ(trend.size(), 2u);
  EXPECT_EQ(trend[0].label, "2014Q1");
  for (const auto& row : trend) {
    EXPECT_GT(row.combination_reports, 0u);
    EXPECT_GE(row.combination_reports, row.reports);
    EXPECT_GE(row.confidence, 0.0);
    EXPECT_LE(row.confidence, 1.0);
  }
}

TEST_F(MultiQuarterTest, TrackSignalMissingVocabularyGivesZeroRow) {
  auto trend = TrackSignal({q1_}, {"2014Q1"}, {"NO SUCH DRUG"}, {"NAUSEA"});
  ASSERT_EQ(trend.size(), 1u);
  EXPECT_EQ(trend[0].combination_reports, 0u);
  EXPECT_EQ(trend[0].reports, 0u);
}

TEST(ClassifyTrendTest, Verdicts) {
  auto row = [](size_t combo, double conf) {
    QuarterlySignalTrend r;
    r.combination_reports = combo;
    r.reports = static_cast<size_t>(conf * static_cast<double>(combo));
    r.confidence = conf;
    return r;
  };
  EXPECT_EQ(ClassifyTrend({row(10, 0.2), row(10, 0.6)}),
            TrendVerdict::kEmerging);
  EXPECT_EQ(ClassifyTrend({row(10, 0.6), row(10, 0.2)}),
            TrendVerdict::kFading);
  EXPECT_EQ(ClassifyTrend({row(10, 0.4), row(10, 0.45)}),
            TrendVerdict::kStable);
  EXPECT_EQ(ClassifyTrend({row(10, 0.4)}), TrendVerdict::kInsufficient);
  EXPECT_EQ(ClassifyTrend({row(0, 0.0), row(0, 0.0)}),
            TrendVerdict::kInsufficient);
  // Zero-combination quarters are skipped, not treated as dips.
  EXPECT_EQ(ClassifyTrend({row(10, 0.2), row(0, 0.0), row(10, 0.6)}),
            TrendVerdict::kEmerging);
}

// --- Fault-tolerant pipeline ------------------------------------------------

faers::QuarterDataset GenerateRaw(int year, int quarter, uint64_t seed) {
  faers::GeneratorConfig config;
  config.year = year;
  config.quarter = quarter;
  config.seed = seed;
  config.n_reports = 400;
  config.n_drugs = 300;
  config.n_adrs = 150;
  faers::SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  EXPECT_TRUE(dataset.ok());
  return *std::move(dataset);
}

class MultiQuarterPipelineTest : public ::testing::Test {
 protected:
  // Writes clean 2041Q1 and 2041Q2 extracts into a per-test subdirectory of
  // TempDir. Tests in this fixture run as separate ctest entries and may run
  // concurrently under `ctest -j`; writing the same filenames into the shared
  // TempDir root would let one test truncate a quarter another is reading.
  // The year 2041 is still unique to this suite across test binaries.
  static std::string WriteCleanQuarters(const std::string& tag) {
    std::string dir = ::testing::TempDir() + "/mq41_" + tag;
    std::filesystem::create_directories(dir);
    EXPECT_TRUE(
        faers::WriteAsciiQuarterToDir(GenerateRaw(2041, 1, 101), dir).ok());
    EXPECT_TRUE(
        faers::WriteAsciiQuarterToDir(GenerateRaw(2041, 2, 202), dir).ok());
    return dir;
  }

  // A generated quarter with one report repeated: it parses, but the
  // repeated primary id is an error-grade validation finding.
  static faers::QuarterDataset BrokenQuarter(int year, int quarter,
                                             uint64_t seed) {
    faers::QuarterDataset dataset = GenerateRaw(year, quarter, seed);
    dataset.reports.push_back(dataset.reports.front());
    return dataset;
  }

  // Quarantine with no validation error budget: a broken quarter is
  // skipped rather than pooled with a warning.
  static MultiQuarterOptions NoErrorBudget() {
    MultiQuarterOptions options;
    options.ingest.policy = faers::IngestPolicy::kQuarantine;
    options.ingest.max_bad_row_fraction = 0.0;
    return options;
  }

  static MultiQuarterOptions Lenient(faers::IngestPolicy policy) {
    MultiQuarterOptions options;
    options.ingest.policy = policy;
    options.ingest.max_bad_row_fraction = 0.5;
    return options;
  }
};

TEST_F(MultiQuarterPipelineTest, StrictRunLoadsAllCleanQuarters) {
  std::string dir = WriteCleanQuarters("strict_loads");
  std::vector<faers::QuarterDataset> quarters;
  for (int quarter : {1, 2}) {
    auto dataset = faers::ReadAsciiQuarterFromDir(dir, 2041, quarter);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    quarters.push_back(*std::move(dataset));
  }
  MultiQuarterPipeline pipeline{MultiQuarterOptions{}};
  auto run = pipeline.Run(quarters);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->quarters_loaded, 2u);
  ASSERT_EQ(run->outcomes.size(), 2u);
  EXPECT_EQ(run->outcomes[0].label, "2041Q1");
  EXPECT_TRUE(run->outcomes[0].loaded);
  EXPECT_TRUE(run->outcomes[1].loaded);
  EXPECT_EQ(run->ingest.rows_rejected, 0u);
  EXPECT_GT(run->merged.transactions.size(), 0u);
}

TEST_F(MultiQuarterPipelineTest, StrictRunFailsNamingTheBrokenQuarter) {
  std::vector<faers::QuarterDataset> quarters = {
      GenerateRaw(2041, 1, 101), BrokenQuarter(2041, 3, 303)};
  auto run = MultiQuarterPipeline{MultiQuarterOptions{}}.Run(quarters);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("quarter 2041Q3"),
            std::string::npos)
      << run.status().ToString();
}

TEST_F(MultiQuarterPipelineTest, PermissiveRunSkipsUnreadableQuarter) {
  std::vector<faers::QuarterDataset> quarters = {
      GenerateRaw(2041, 1, 101), BrokenQuarter(2041, 3, 303),
      GenerateRaw(2041, 2, 202)};
  auto run = MultiQuarterPipeline{NoErrorBudget()}.Run(quarters);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->quarters_loaded, 2u);
  ASSERT_EQ(run->outcomes.size(), 3u);
  EXPECT_FALSE(run->outcomes[1].loaded);
  EXPECT_FALSE(run->outcomes[1].error.empty());
  bool skip_warning = false;
  for (const std::string& warning : run->ingest.warnings) {
    skip_warning = skip_warning ||
                   warning.find("skipping quarter 2041Q3") != std::string::npos;
  }
  EXPECT_TRUE(skip_warning);
}

TEST_F(MultiQuarterPipelineTest, AllQuartersFailingIsAnError) {
  std::vector<faers::QuarterDataset> quarters = {
      BrokenQuarter(2041, 1, 101), BrokenQuarter(2041, 2, 202)};
  auto run = MultiQuarterPipeline{NoErrorBudget()}.Run(quarters);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsCorruption());
  EXPECT_NE(run.status().message().find("all 2 quarters"), std::string::npos);
}

TEST_F(MultiQuarterPipelineTest, EmptySourceListRejected) {
  MultiQuarterPipeline pipeline{MultiQuarterOptions{}};
  EXPECT_TRUE(pipeline.Run({}).status().IsInvalidArgument());
}

TEST_F(MultiQuarterPipelineTest, InMemoryRunMergesQuarters) {
  std::vector<faers::QuarterDataset> quarters;
  quarters.push_back(GenerateRaw(2014, 1, 101));
  quarters.push_back(GenerateRaw(2014, 2, 202));
  MultiQuarterPipeline pipeline{MultiQuarterOptions{}};
  auto run = pipeline.Run(quarters);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->quarters_loaded, 2u);
  EXPECT_GT(run->merged.stats.reports_kept, 0u);
}

TEST_F(MultiQuarterPipelineTest,
       ValidationErrorFailsStrictAndIsAWarningUnderQuarantine) {
  std::vector<faers::QuarterDataset> quarters;
  quarters.push_back(GenerateRaw(2041, 1, 101));
  quarters.push_back(GenerateRaw(2041, 2, 202));
  // A repeated primary id parses fine but is an error-grade finding.
  faers::Report repeated = quarters[1].reports.front();
  quarters[1].reports.push_back(repeated);
  const std::string primary_id = std::to_string(repeated.primary_id());

  auto strict = MultiQuarterPipeline{MultiQuarterOptions{}}.Run(quarters);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("quarter 2041Q2"),
            std::string::npos)
      << strict.status().ToString();
  EXPECT_NE(strict.status().message().find("duplicate-primaryid"),
            std::string::npos)
      << strict.status().ToString();

  MultiQuarterPipeline quarantine{Lenient(faers::IngestPolicy::kQuarantine)};
  auto run = quarantine.Run(quarters);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->quarters_loaded, 2u);
  size_t validation_warnings = 0;
  for (const std::string& warning : run->ingest.warnings) {
    if (warning.find("validation [duplicate-primaryid]") != std::string::npos &&
        warning.find(primary_id) != std::string::npos) {
      ++validation_warnings;
    }
  }
  EXPECT_EQ(validation_warnings, 1u);
}

TEST(ClassifyTrendTest, NamesComplete) {
  EXPECT_STREQ(TrendVerdictName(TrendVerdict::kEmerging), "emerging");
  EXPECT_STREQ(TrendVerdictName(TrendVerdict::kStable), "stable");
  EXPECT_STREQ(TrendVerdictName(TrendVerdict::kFading), "fading");
  EXPECT_STREQ(TrendVerdictName(TrendVerdict::kInsufficient),
               "insufficient");
}

}  // namespace
}  // namespace maras::core
