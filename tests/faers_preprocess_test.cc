#include "faers/preprocess.h"

#include <gtest/gtest.h>

#include "faers/generator.h"

namespace maras::faers {
namespace {

Report MakeReport(QuarterDataset* dataset, uint64_t case_id,
                  const std::vector<std::string>& drugs,
                  const std::vector<std::string>& reactions,
                  ReportType type = ReportType::kExpedited,
                  uint32_t version = 1) {
  Report r;
  r.case_id = case_id;
  r.case_version = version;
  r.type = type;
  r.drugs = dataset->names.InternAll(drugs);
  r.reactions = dataset->names.InternAll(reactions);
  return r;
}

TEST(PreprocessTest, BuildsTransactionsWithDomains) {
  QuarterDataset dataset;
  dataset.reports = {
      MakeReport(&dataset, 1, {"ASPIRIN", "WARFARIN"}, {"HAEMORRHAGE"}),
      MakeReport(&dataset, 2, {"ASPIRIN"}, {"NAUSEA"}),
  };
  Preprocessor pre(PreprocessOptions{});
  auto result = pre.Process(dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->transactions.size(), 2u);
  EXPECT_EQ(result->stats.distinct_drugs, 2u);
  EXPECT_EQ(result->stats.distinct_adrs, 2u);
  auto aspirin = result->items.Lookup("ASPIRIN");
  ASSERT_TRUE(aspirin.ok());
  EXPECT_EQ(result->items.Domain(*aspirin), mining::ItemDomain::kDrug);
  auto nausea = result->items.Lookup("NAUSEA");
  ASSERT_TRUE(nausea.ok());
  EXPECT_EQ(result->items.Domain(*nausea), mining::ItemDomain::kAdr);
}

TEST(PreprocessTest, ExpeditedFilterDropsPeriodic) {
  QuarterDataset dataset;
  dataset.reports = {
      MakeReport(&dataset, 1, {"ASPIRIN"}, {"NAUSEA"}, ReportType::kExpedited),
      MakeReport(&dataset, 2, {"NEXIUM"}, {"HEADACHE"}, ReportType::kPeriodic),
  };
  Preprocessor pre(PreprocessOptions{});
  auto result = pre.Process(dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.reports_kept, 1u);
  EXPECT_EQ(result->stats.dropped_not_expedited, 1u);
  EXPECT_FALSE(result->items.Lookup("NEXIUM").ok());
}

TEST(PreprocessTest, ExpeditedFilterCanBeDisabled) {
  QuarterDataset dataset;
  dataset.reports = {
      MakeReport(&dataset, 1, {"ASPIRIN"}, {"NAUSEA"}, ReportType::kPeriodic),
  };
  PreprocessOptions options;
  options.expedited_only = false;
  auto result = Preprocessor(options).Process(dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.reports_kept, 1u);
}

TEST(PreprocessTest, KeepsOnlyLatestCaseVersion) {
  QuarterDataset dataset;
  dataset.reports = {
      MakeReport(&dataset, 7, {"ASPIRIN"}, {"NAUSEA"}, ReportType::kExpedited, 1),
      MakeReport(&dataset, 7, {"ASPIRIN"}, {"NAUSEA", "RASH"}, ReportType::kExpedited,
                 2),
      MakeReport(&dataset, 8, {"NEXIUM"}, {"HEADACHE"}, ReportType::kExpedited, 1),
  };
  Preprocessor pre(PreprocessOptions{});
  auto result = pre.Process(dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.reports_kept, 2u);
  EXPECT_EQ(result->stats.dropped_stale_version, 1u);
  // The kept version of case 7 is the 3-item one.
  bool found_rash = result->items.Lookup("RASH").ok();
  EXPECT_TRUE(found_rash);
}

TEST(PreprocessTest, CorrectsMisspellingsAndAliases) {
  QuarterDataset dataset;
  dataset.reports = {
      MakeReport(&dataset, 1, {"WARFRIN", "COUMADIN"}, {"HAEMORRHAGE"}),
  };
  Preprocessor pre(PreprocessOptions{});
  auto result = pre.Process(dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.fuzzy_corrections, 1u);
  EXPECT_EQ(result->stats.alias_resolutions, 1u);
  // Both names resolve to WARFARIN; the transaction holds one drug item.
  EXPECT_EQ(result->stats.distinct_drugs, 1u);
  EXPECT_TRUE(result->items.Lookup("WARFARIN").ok());
  EXPECT_EQ(result->transactions.transaction(0).size(), 2u);  // drug + ADR
}

TEST(PreprocessTest, NormalizesDoseDecorations) {
  QuarterDataset dataset;
  dataset.reports = {
      MakeReport(&dataset, 1, {"ASPIRIN 100MG TABLET", "aspirin"}, {"NAUSEA"}),
  };
  Preprocessor pre(PreprocessOptions{});
  auto result = pre.Process(dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.distinct_drugs, 1u);
  EXPECT_TRUE(result->items.Lookup("ASPIRIN").ok());
}

TEST(PreprocessTest, UnknownNamesKeptAsNewVocabulary) {
  QuarterDataset dataset;
  dataset.reports = {
      MakeReport(&dataset, 1, {"DRUG01234"}, {"REACTION00042"}),
  };
  Preprocessor pre(PreprocessOptions{});
  auto result = pre.Process(dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->items.Lookup("DRUG01234").ok());
  EXPECT_TRUE(result->items.Lookup("REACTION00042").ok());
}

TEST(PreprocessTest, DropsReportsWithoutDrugsOrReactions) {
  QuarterDataset dataset;
  dataset.reports = {
      MakeReport(&dataset, 1, {}, {"NAUSEA"}),
      MakeReport(&dataset, 2, {"ASPIRIN"}, {}),
      MakeReport(&dataset, 3, {"ASPIRIN"}, {"NAUSEA"}),
  };
  Preprocessor pre(PreprocessOptions{});
  auto result = pre.Process(dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.reports_kept, 1u);
  EXPECT_EQ(result->stats.dropped_empty, 2u);
}

TEST(PreprocessTest, PrimaryIdsAlignWithTransactions) {
  QuarterDataset dataset;
  dataset.reports = {
      MakeReport(&dataset, 11, {"ASPIRIN"}, {"NAUSEA"}),
      MakeReport(&dataset, 12, {"NEXIUM"}, {"HEADACHE"}),
  };
  Preprocessor pre(PreprocessOptions{});
  auto result = pre.Process(dataset);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->primary_ids.size(), result->transactions.size());
  EXPECT_EQ(result->primary_ids[0], dataset.reports[0].primary_id());
  EXPECT_EQ(result->primary_ids[1], dataset.reports[1].primary_id());
}

TEST(PreprocessTest, FuzzyCorrectionDisabledKeepsMisspelling) {
  QuarterDataset dataset;
  dataset.reports = {MakeReport(&dataset, 1, {"WARFRIN"}, {"NAUSEA"})};
  PreprocessOptions options;
  options.max_edit_distance = 0;
  auto result = Preprocessor(options).Process(dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->items.Lookup("WARFRIN").ok());
  EXPECT_EQ(result->stats.fuzzy_corrections, 0u);
}

TEST(PreprocessTest, EndToEndWithGenerator) {
  GeneratorConfig config;
  config.n_reports = 500;
  config.n_drugs = 200;
  config.n_adrs = 120;
  SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  ASSERT_TRUE(dataset.ok());
  Preprocessor pre(PreprocessOptions{});
  auto result = pre.Process(*dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.reports_kept, 300u);
  EXPECT_GT(result->stats.fuzzy_corrections + result->stats.alias_resolutions,
            0u);
  EXPECT_GT(result->stats.distinct_drugs, 50u);
  // Domain separation invariant: every transaction mixes both domains.
  for (const auto& t : result->transactions.transactions()) {
    bool has_drug = false, has_adr = false;
    for (auto id : t) {
      if (result->items.Domain(id) == mining::ItemDomain::kDrug) {
        has_drug = true;
      } else {
        has_adr = true;
      }
    }
    EXPECT_TRUE(has_drug);
    EXPECT_TRUE(has_adr);
  }
}


TEST(PreprocessTest, ItemsFollowFirstMentionInReportsThatPassTheFilters) {
  QuarterDataset dataset;
  dataset.reports = {
      // Names seen only in a periodic or a stale report become no item.
      MakeReport(&dataset, 1, {"DRUG07001"}, {"REACTION07001"},
                 ReportType::kPeriodic),
      MakeReport(&dataset, 7, {"DRUG07002"}, {"NAUSEA"},
                 ReportType::kExpedited, 1),
      MakeReport(&dataset, 7, {"WARFARIN"}, {"HAEMORRHAGE"},
                 ReportType::kExpedited, 2),
      MakeReport(&dataset, 8, {"ASPIRIN", "WARFARIN"}, {"NAUSEA"}),
  };
  auto result = Preprocessor(PreprocessOptions{}).Process(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->items.Lookup("DRUG07001").ok());
  EXPECT_FALSE(result->items.Lookup("REACTION07001").ok());
  EXPECT_FALSE(result->items.Lookup("DRUG07002").ok());
  ASSERT_EQ(result->items.size(), 4u);
  EXPECT_EQ(result->items.Name(0), "WARFARIN");
  EXPECT_EQ(result->items.Name(1), "HAEMORRHAGE");
  EXPECT_EQ(result->items.Name(2), "ASPIRIN");
  EXPECT_EQ(result->items.Name(3), "NAUSEA");
  EXPECT_EQ(result->stats.dropped_not_expedited, 1u);
  EXPECT_EQ(result->stats.dropped_stale_version, 1u);
  ASSERT_EQ(result->transactions.size(), 2u);
  EXPECT_EQ(result->transactions.transaction(1),
            (mining::Itemset{0, 2, 3}));
}

}  // namespace
}  // namespace maras::faers
