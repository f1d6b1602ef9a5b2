#include "faers/generator.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace maras::faers {
namespace {

GeneratorConfig SmallConfig() {
  GeneratorConfig config;
  config.n_reports = 800;
  config.n_drugs = 300;
  config.n_adrs = 150;
  config.seed = 42;
  return config;
}

TEST(GeneratorTest, DeterministicForSameConfig) {
  SyntheticGenerator g1(SmallConfig());
  SyntheticGenerator g2(SmallConfig());
  auto d1 = g1.Generate();
  auto d2 = g2.Generate();
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  ASSERT_EQ(d1->reports.size(), d2->reports.size());
  for (size_t i = 0; i < d1->reports.size(); ++i) {
    EXPECT_EQ(d1->reports[i].case_id, d2->reports[i].case_id);
    EXPECT_EQ(d1->Names(d1->reports[i].drugs),
              d2->Names(d2->reports[i].drugs));
    EXPECT_EQ(d1->Names(d1->reports[i].reactions),
              d2->Names(d2->reports[i].reactions));
  }
}

TEST(GeneratorTest, DifferentQuartersDiffer) {
  GeneratorConfig c1 = SmallConfig();
  GeneratorConfig c2 = SmallConfig();
  c2.quarter = 2;
  auto d1 = SyntheticGenerator(c1).Generate();
  auto d2 = SyntheticGenerator(c2).Generate();
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  // Same sizes of background, different content.
  bool any_difference = false;
  size_t n = std::min(d1->reports.size(), d2->reports.size());
  for (size_t i = 0; i < n && !any_difference; ++i) {
    any_difference = d1->Names(d1->reports[i].drugs) !=
                     d2->Names(d2->reports[i].drugs);
  }
  EXPECT_TRUE(any_difference);
}

TEST(GeneratorTest, EveryReportHasDrugsAndReactions) {
  auto dataset = SyntheticGenerator(SmallConfig()).Generate();
  ASSERT_TRUE(dataset.ok());
  for (const Report& r : dataset->reports) {
    EXPECT_FALSE(r.drugs.empty());
    EXPECT_FALSE(r.reactions.empty());
    EXPECT_GE(r.age, 0.0);
    EXPECT_FALSE(r.country.empty());
  }
}

TEST(GeneratorTest, InjectsSignalReports) {
  GeneratorConfig config = SmallConfig();
  SignalSpec signal;
  signal.name = "test_pair";
  signal.drugs = {"ASPIRIN", "WARFARIN"};
  signal.adrs = {"HAEMORRHAGE"};
  signal.reports = 40;
  signal.single_drug_leak = 0.0;
  signal.adr_penetrance = 1.0;
  signal.extra_drugs_mean = 0.0;
  signal.extra_adrs_mean = 0.0;
  config.signals = {signal};
  config.misspelling_rate = 0.0;
  config.alias_rate = 0.0;
  config.dose_decoration_rate = 0.0;
  SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  ASSERT_TRUE(dataset.ok());
  size_t both = 0;
  for (const Report& r : dataset->reports) {
    bool has_a = false, has_w = false, has_h = false;
    for (NameId d : r.drugs) {
      has_a |= dataset->Name(d) == "ASPIRIN";
      has_w |= dataset->Name(d) == "WARFARIN";
    }
    for (NameId a : r.reactions) has_h |= dataset->Name(a) == "HAEMORRHAGE";
    if (has_a && has_w && has_h) ++both;
  }
  EXPECT_GE(both, 40u);  // at least the injected ones (version dups may add)
}

TEST(GeneratorTest, ExpeditedFractionRoughlyHolds) {
  auto dataset = SyntheticGenerator(SmallConfig()).Generate();
  ASSERT_TRUE(dataset.ok());
  size_t exp = 0;
  for (const Report& r : dataset->reports) {
    exp += r.type == ReportType::kExpedited;
  }
  double fraction =
      static_cast<double>(exp) / static_cast<double>(dataset->reports.size());
  EXPECT_NEAR(fraction, 0.85, 0.06);
}

TEST(GeneratorTest, ResubmissionsShareCaseIdWithHigherVersion) {
  auto dataset = SyntheticGenerator(SmallConfig()).Generate();
  ASSERT_TRUE(dataset.ok());
  std::map<uint64_t, std::set<uint32_t>> versions;
  for (const Report& r : dataset->reports) {
    versions[r.case_id].insert(r.case_version);
  }
  size_t multi = 0;
  for (const auto& [case_id, vs] : versions) {
    if (vs.size() > 1) {
      ++multi;
      EXPECT_TRUE(vs.count(1) > 0 || *vs.begin() >= 1);
    }
  }
  EXPECT_GT(multi, 0u);
}

TEST(GeneratorTest, DirtyNamesAppearAtConfiguredRates) {
  GeneratorConfig config = SmallConfig();
  config.misspelling_rate = 0.3;
  config.dose_decoration_rate = 0.3;
  SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  ASSERT_TRUE(dataset.ok());
  std::set<std::string> clean(generator.drug_vocabulary().begin(),
                              generator.drug_vocabulary().end());
  for (const DrugAlias& alias : CuratedDrugAliases()) clean.insert(alias.alias);
  size_t dirty = 0, total = 0;
  for (const Report& r : dataset->reports) {
    for (NameId d : r.drugs) {
      ++total;
      if (clean.count(std::string(dataset->Name(d))) == 0) ++dirty;
    }
  }
  // ~30% misspelled + ~30% decorated (overlapping) -> expect a large share.
  EXPECT_GT(static_cast<double>(dirty) / static_cast<double>(total), 0.3);
}

TEST(GeneratorTest, ZeroReportsRejected) {
  GeneratorConfig config = SmallConfig();
  config.n_reports = 0;
  EXPECT_TRUE(
      SyntheticGenerator(config).Generate().status().IsInvalidArgument());
}

TEST(GeneratorTest, DefaultSignalsCoverKnownInteractions) {
  auto signals = DefaultSignals(25000);
  EXPECT_EQ(signals.size(), KnownInteractions().size());
  for (const auto& s : signals) {
    EXPECT_GE(s.drugs.size(), 2u);
    EXPECT_GE(s.adrs.size(), 1u);
    EXPECT_GT(s.reports, 0u);
  }
}

TEST(GeneratorTest, ScalingKeepsMinimumSignalCount) {
  auto small = DefaultSignals(500);
  for (const auto& s : small) EXPECT_GE(s.reports, 8u);
}

TEST(VocabularyTest, CuratedNamesAreUppercaseAndUnique) {
  std::set<std::string> seen;
  for (const auto& name : CuratedDrugNames()) {
    EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
    for (char c : name) {
      EXPECT_FALSE(c >= 'a' && c <= 'z') << name;
    }
  }
}

TEST(VocabularyTest, AliasesPointToCuratedDrugs) {
  std::set<std::string> drugs(CuratedDrugNames().begin(),
                              CuratedDrugNames().end());
  for (const auto& alias : CuratedDrugAliases()) {
    EXPECT_TRUE(drugs.count(alias.canonical) > 0) << alias.canonical;
    EXPECT_NE(alias.alias, alias.canonical);
  }
}

TEST(VocabularyTest, KnownInteractionsUseCuratedVocabulary) {
  std::set<std::string> drugs(CuratedDrugNames().begin(),
                              CuratedDrugNames().end());
  std::set<std::string> adrs(CuratedAdrTerms().begin(),
                             CuratedAdrTerms().end());
  for (const auto& known : KnownInteractions()) {
    EXPECT_GE(known.drugs.size(), 2u) << known.name;
    for (const auto& d : known.drugs) EXPECT_TRUE(drugs.count(d)) << d;
    for (const auto& a : known.adrs) EXPECT_TRUE(adrs.count(a)) << a;
    EXPECT_FALSE(known.provenance.empty());
  }
}

TEST(VocabularyTest, SyntheticNamesDeterministicAndDistinct) {
  auto a = SyntheticNames("DRUG", 100);
  auto b = SyntheticNames("DRUG", 100);
  EXPECT_EQ(a, b);
  std::set<std::string> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_EQ(a[7], "DRUG00007");
}

}  // namespace
}  // namespace maras::faers
