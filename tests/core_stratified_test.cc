#include "core/stratified.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "test_util.h"
#include "util/random.h"

namespace maras::core {
namespace {

using maras::test::MiniCorpus;

// Corpus builder that also records demographics per report.
struct StratCorpus {
  MiniCorpus corpus;
  std::vector<faers::CaseDemographics> demographics;

  void Add(const maras::test::ReportSpec& spec, faers::Sex sex, double age,
           size_t copies = 1) {
    for (size_t i = 0; i < copies; ++i) {
      corpus.Add(spec, 1);
      demographics.push_back(faers::CaseDemographics{sex, age});
    }
  }
  DrugAdrRule Rule(const std::vector<std::string>& drugs,
                   const std::vector<std::string>& adrs) {
    DrugAdrRule rule;
    rule.drugs = corpus.Drugs(drugs);
    rule.adrs = corpus.Adrs(adrs);
    return rule;
  }
};

TEST(AgeBandTest, Boundaries) {
  EXPECT_EQ(AgeBandOf(-1), AgeBand::kUnknown);
  EXPECT_EQ(AgeBandOf(0), AgeBand::kChild);
  EXPECT_EQ(AgeBandOf(17.9), AgeBand::kChild);
  EXPECT_EQ(AgeBandOf(18), AgeBand::kAdult);
  EXPECT_EQ(AgeBandOf(64.9), AgeBand::kAdult);
  EXPECT_EQ(AgeBandOf(65), AgeBand::kElderly);
  EXPECT_EQ(AgeBandOf(100), AgeBand::kElderly);
}

TEST(StratifiedTest, TablesPartitionEachStratum) {
  StratCorpus sc;
  sc.Add({{"A"}, {"X"}}, faers::Sex::kFemale, 70, 4);
  sc.Add({{"A"}, {"Y"}}, faers::Sex::kFemale, 70, 2);
  sc.Add({{"B"}, {"X"}}, faers::Sex::kMale, 30, 5);
  StratifiedAnalyzer analyzer(&sc.corpus.db, &sc.demographics);
  DrugAdrRule rule = sc.Rule({"A"}, {"X"});
  auto tables = analyzer.Tables(rule);
  // Two populated strata: F/65+ and M/18-64.
  ASSERT_EQ(tables.size(), 2u);
  size_t total = 0;
  for (const auto& stratum : tables) total += stratum.table.n();
  EXPECT_EQ(total, sc.corpus.db.size());
  // F/65+: a=4 (A with X), b=2 (A without X), c=0, d=0.
  const auto& elderly = tables[0].age_band == AgeBand::kElderly
                            ? tables[0]
                            : tables[1];
  EXPECT_EQ(elderly.table.a, 4u);
  EXPECT_EQ(elderly.table.b, 2u);
  EXPECT_EQ(elderly.table.c, 0u);
  EXPECT_EQ(elderly.table.d, 0u);
}

TEST(StratifiedTest, MantelHaenszelEqualsCrudeWhenHomogeneous) {
  // Single stratum -> MH reduces exactly to the crude OR.
  StratCorpus sc;
  sc.Add({{"A", "B"}, {"X"}}, faers::Sex::kFemale, 40, 6);
  sc.Add({{"A", "B"}, {"Y"}}, faers::Sex::kFemale, 40, 2);
  sc.Add({{"C"}, {"X"}}, faers::Sex::kFemale, 40, 3);
  sc.Add({{"C"}, {"Y"}}, faers::Sex::kFemale, 40, 9);
  StratifiedAnalyzer analyzer(&sc.corpus.db, &sc.demographics);
  DrugAdrRule rule = sc.Rule({"A", "B"}, {"X"});
  EXPECT_NEAR(analyzer.MantelHaenszelRor(rule), analyzer.CrudeRor(rule),
              1e-9);
  EXPECT_FALSE(analyzer.IsConfounded(rule));
}

TEST(StratifiedTest, SimpsonsParadoxDetected) {
  // Classic confounding: within each stratum drug and ADR are independent
  // (OR = 1), but the elderly both take the drug and report the ADR far
  // more, so the crude OR looks like a strong signal.
  StratCorpus sc;
  // Elderly: 40 exposed / 10 unexposed; ADR rate 50% in both arms.
  sc.Add({{"D"}, {"X"}}, faers::Sex::kFemale, 75, 20);
  sc.Add({{"D"}, {"Y"}}, faers::Sex::kFemale, 75, 20);
  sc.Add({{"C"}, {"X"}}, faers::Sex::kFemale, 75, 5);
  sc.Add({{"C"}, {"Y"}}, faers::Sex::kFemale, 75, 5);
  // Adults: 10 exposed / 40 unexposed; ADR rate 10% in both arms.
  sc.Add({{"D"}, {"X"}}, faers::Sex::kMale, 40, 1);
  sc.Add({{"D"}, {"Y"}}, faers::Sex::kMale, 40, 9);
  sc.Add({{"C"}, {"X"}}, faers::Sex::kMale, 40, 4);
  sc.Add({{"C"}, {"Y"}}, faers::Sex::kMale, 40, 36);
  StratifiedAnalyzer analyzer(&sc.corpus.db, &sc.demographics);
  DrugAdrRule rule = sc.Rule({"D"}, {"X"});
  double crude = analyzer.CrudeRor(rule);
  double pooled = analyzer.MantelHaenszelRor(rule);
  EXPECT_GT(crude, 1.5);            // the spurious crude signal
  EXPECT_NEAR(pooled, 1.0, 0.05);   // stratification removes it
  EXPECT_TRUE(analyzer.IsConfounded(rule));
}

TEST(StratifiedTest, MantelHaenszelHandComputed) {
  // Two strata with hand-computed MH OR.
  // S1: a=4 b=1 c=2 d=8 (n=15): ad/n = 32/15, bc/n = 2/15
  // S2: a=2 b=2 c=1 d=5 (n=10): ad/n = 10/10=1, bc/n = 2/10
  // OR_MH = (32/15 + 1) / (2/15 + 0.2) = (47/15) / (1/3) = 9.4
  StratCorpus sc;
  sc.Add({{"A"}, {"X"}}, faers::Sex::kFemale, 30, 4);   // S1 a
  sc.Add({{"A"}, {"Y"}}, faers::Sex::kFemale, 30, 1);   // S1 b
  sc.Add({{"B"}, {"X"}}, faers::Sex::kFemale, 30, 2);   // S1 c
  sc.Add({{"B"}, {"Y"}}, faers::Sex::kFemale, 30, 8);   // S1 d
  sc.Add({{"A"}, {"X"}}, faers::Sex::kMale, 70, 2);     // S2 a
  sc.Add({{"A"}, {"Y"}}, faers::Sex::kMale, 70, 2);     // S2 b
  sc.Add({{"B"}, {"X"}}, faers::Sex::kMale, 70, 1);     // S2 c
  sc.Add({{"B"}, {"Y"}}, faers::Sex::kMale, 70, 5);     // S2 d
  StratifiedAnalyzer analyzer(&sc.corpus.db, &sc.demographics);
  DrugAdrRule rule = sc.Rule({"A"}, {"X"});
  EXPECT_NEAR(analyzer.MantelHaenszelRor(rule), 9.4, 1e-9);
}

TEST(StratifiedTest, DegenerateDenominatorCapped) {
  StratCorpus sc;
  sc.Add({{"A"}, {"X"}}, faers::Sex::kFemale, 30, 3);
  sc.Add({{"B"}, {"Y"}}, faers::Sex::kFemale, 30, 3);
  StratifiedAnalyzer analyzer(&sc.corpus.db, &sc.demographics);
  DrugAdrRule rule = sc.Rule({"A"}, {"X"});
  // b = 0 and c = 0 in the only stratum -> denominator 0, numerator > 0.
  EXPECT_DOUBLE_EQ(analyzer.MantelHaenszelRor(rule),
                   kDisproportionalityCap);
  EXPECT_FALSE(analyzer.IsConfounded(rule));  // degenerate, not evidence
}

TEST(StratifiedTest, MissingDemographicsFallIntoUnknownStratum) {
  MiniCorpus corpus;
  corpus.Add({{"A"}, {"X"}}, 5);
  std::vector<faers::CaseDemographics> demographics;  // shorter than db
  StratifiedAnalyzer analyzer(&corpus.db, &demographics);
  DrugAdrRule rule;
  rule.drugs = corpus.Drugs({"A"});
  rule.adrs = corpus.Adrs({"X"});
  auto tables = analyzer.Tables(rule);
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0].sex, faers::Sex::kUnknown);
  EXPECT_EQ(tables[0].age_band, AgeBand::kUnknown);
  EXPECT_EQ(tables[0].table.a, 5u);
}

// --------------------------------------------------------------------------
// Bitmap-kernel Tables vs the scalar merge reference, on a randomized
// corpus spanning every stratum. Cell counts are exact on both paths, so
// they must agree exactly — and everything pooled from them (MH, the
// confounding flag) must be bit-identical at any thread count.
// --------------------------------------------------------------------------

StratCorpus RandomStratCorpus(maras::Rng* rng, int reports) {
  StratCorpus built;
  const double ages[] = {-1.0, 9.0, 40.0, 81.0};  // one per band
  for (int r = 0; r < reports; ++r) {
    maras::test::ReportSpec spec;
    for (size_t i = 1 + rng->Uniform(3); i > 0; --i) {
      spec.drugs.push_back("D" + std::to_string(rng->Uniform(12)));
    }
    for (size_t i = 1 + rng->Uniform(2); i > 0; --i) {
      spec.adrs.push_back("A" + std::to_string(rng->Uniform(8)));
    }
    built.Add(spec, static_cast<faers::Sex>(rng->Uniform(3)),
              ages[rng->Uniform(4)]);
  }
  return built;
}

TEST(StratifiedTest, BitmapTablesMatchScalarReference) {
  maras::Rng rng(0x57247);
  StratCorpus built = RandomStratCorpus(&rng, 500);
  StratifiedAnalyzer analyzer(&built.corpus.db, &built.demographics);
  for (int trial = 0; trial < 25; ++trial) {
    DrugAdrRule rule = built.Rule(
        {"D" + std::to_string(rng.Uniform(12))},
        {"A" + std::to_string(rng.Uniform(8))});
    if (trial % 3 == 0) {  // multi-drug rules stress the set intersection
      rule.drugs = mining::Union(
          rule.drugs, built.corpus.Drugs({"D" + std::to_string(
                          rng.Uniform(12))}));
    }
    auto bitmap_tables = analyzer.Tables(rule);
    auto scalar_tables = analyzer.TablesScalar(rule);
    ASSERT_EQ(bitmap_tables.size(), scalar_tables.size()) << trial;
    for (size_t s = 0; s < bitmap_tables.size(); ++s) {
      EXPECT_EQ(bitmap_tables[s].sex, scalar_tables[s].sex);
      EXPECT_EQ(bitmap_tables[s].age_band, scalar_tables[s].age_band);
      EXPECT_EQ(bitmap_tables[s].table.a, scalar_tables[s].table.a) << trial;
      EXPECT_EQ(bitmap_tables[s].table.b, scalar_tables[s].table.b) << trial;
      EXPECT_EQ(bitmap_tables[s].table.c, scalar_tables[s].table.c) << trial;
      EXPECT_EQ(bitmap_tables[s].table.d, scalar_tables[s].table.d) << trial;
    }
  }
}

TEST(StratifiedTest, BatchedPoolingIdenticalAcrossThreadCounts) {
  maras::Rng rng(0x4D48);  // 'MH'
  StratCorpus built = RandomStratCorpus(&rng, 400);
  StratifiedAnalyzer analyzer(&built.corpus.db, &built.demographics);
  std::vector<DrugAdrRule> rules;
  for (int r = 0; r < 30; ++r) {
    rules.push_back(built.Rule({"D" + std::to_string(rng.Uniform(12))},
                               {"A" + std::to_string(rng.Uniform(8))}));
  }
  std::vector<double> serial = analyzer.MantelHaenszelRors(rules, 1);
  for (size_t threads : {2u, 8u}) {
    EXPECT_EQ(analyzer.MantelHaenszelRors(rules, threads), serial)
        << threads << " threads";
  }
  // And each pooled value equals the one-rule path exactly.
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(serial[i], analyzer.MantelHaenszelRor(rules[i])) << i;
  }
}

}  // namespace
}  // namespace maras::core
