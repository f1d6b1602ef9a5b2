// The parallel mining engine's trust harness, in two halves.
//
// Differential oracle: FP-Growth (prefix-tree projection, serial and
// thread-pooled) must produce the exact same frequent-itemset family as the
// two test-only oracles in tests/oracles — Apriori (level-wise) and an
// exhaustive brute-force enumerator — on seeded random databases. Any algorithmic or concurrency
// bug has to corrupt all of them identically to slip through.
//
// Determinism suite: on generator-built FAERS corpora, the full serialized
// output — closed itemsets, association rules, and ranked MCACs — must be
// byte-identical for num_threads ∈ {1, 2, 8}, across seeds. This is the
// guarantee DESIGN.md documents: thread count is a speed knob, never a
// semantics knob.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/ranking.h"
#include "faers/generator.h"
#include "faers/preprocess.h"
#include "mining/closed_itemsets.h"
#include "mining/fpgrowth.h"
#include "mining/rules.h"
#include "tests/oracles/apriori.h"
#include "tests/oracles/brute_force.h"
#include "tests/oracles/partition_rules.h"
#include "util/random.h"

namespace maras::mining {
namespace {

TransactionDatabase RandomDb(maras::Rng* rng, int transactions, int items,
                             int max_len) {
  TransactionDatabase db;
  for (int t = 0; t < transactions; ++t) {
    Itemset txn;
    for (size_t i = 1 + rng->Uniform(static_cast<uint64_t>(max_len)); i > 0;
         --i) {
      txn.push_back(static_cast<ItemId>(rng->Uniform(items)));
    }
    db.Add(std::move(txn));
  }
  return db;
}

// Canonical byte serialization of a mined result. Two results are identical
// iff their serializations match, so EXPECT_EQ on these strings is the
// "byte-identical" assertion of the issue.
std::string Serialize(const FrequentItemsetResult& result) {
  std::ostringstream out;
  for (const FrequentItemset& fi : result.itemsets()) {
    for (ItemId id : fi.items) out << id << ',';
    out << ':' << fi.support << ';';
  }
  return out.str();
}

std::string Serialize(const std::vector<AssociationRule>& rules) {
  std::ostringstream out;
  for (const AssociationRule& r : rules) {
    for (ItemId id : r.antecedent) out << id << ',';
    out << "=>";
    for (ItemId id : r.consequent) out << id << ',';
    out << ':' << r.support << '/' << r.antecedent_support << '/'
        << r.consequent_support << '/' << r.confidence << '/' << r.lift
        << ';';
  }
  return out.str();
}

std::string Serialize(const std::vector<core::RankedMcac>& ranked) {
  std::ostringstream out;
  for (const core::RankedMcac& entry : ranked) {
    for (ItemId id : entry.mcac.target.drugs) out << id << ',';
    out << "=>";
    for (ItemId id : entry.mcac.target.adrs) out << id << ',';
    out << ':' << entry.mcac.target.support << '@' << entry.score;
    for (const auto& level : entry.mcac.levels) {
      out << '|';
      for (const core::DrugAdrRule& rule : level) {
        for (ItemId id : rule.drugs) out << id << ',';
        out << '~' << rule.support << '~' << rule.confidence << ' ';
      }
    }
    out << ';';
  }
  return out.str();
}

void ExpectIdentical(const FrequentItemsetResult& a,
                     const FrequentItemsetResult& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(Serialize(a), Serialize(b)) << label;
}

// --------------------------------------------------------------------------
// Differential oracle.
// --------------------------------------------------------------------------

class DifferentialOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialOracleTest, FourMinersAgreeOnRandomDatabases) {
  maras::Rng rng(GetParam());
  for (int trial = 0; trial < 6; ++trial) {
    const int items = 8 + static_cast<int>(rng.Uniform(4));  // 8..11
    TransactionDatabase db = RandomDb(&rng, 60 + trial * 20, items, 6);
    MiningOptions options{.min_support = 1 + rng.Uniform(4)};
    auto fp = FpGrowth(options).Mine(db);
    auto ap = Apriori(options).Mine(db);
    ASSERT_TRUE(fp.ok());
    ASSERT_TRUE(ap.ok());
    FrequentItemsetResult brute = BruteForceMine(db, options, items);
    ExpectIdentical(*fp, brute, "fpgrowth vs brute");
    ExpectIdentical(*ap, brute, "apriori vs brute");

    MiningOptions parallel = options;
    parallel.num_threads = 4;
    auto fp4 = FpGrowth(parallel).Mine(db);
    ASSERT_TRUE(fp4.ok());
    ExpectIdentical(*fp4, brute, "fpgrowth(4 threads) vs brute");
  }
}

TEST_P(DifferentialOracleTest, AgreementHoldsUnderSizeCap) {
  maras::Rng rng(GetParam() ^ 0xABCDEF);
  const int items = 10;
  TransactionDatabase db = RandomDb(&rng, 90, items, 7);
  MiningOptions options{.min_support = 2, .max_itemset_size = 3};
  FrequentItemsetResult brute = BruteForceMine(db, options, items);
  auto fp = FpGrowth(options).Mine(db);
  auto ap = Apriori(options).Mine(db);
  ASSERT_TRUE(fp.ok() && ap.ok());
  ExpectIdentical(*fp, brute, "fpgrowth vs brute (capped)");
  ExpectIdentical(*ap, brute, "apriori vs brute (capped)");
  options.num_threads = 8;
  auto fp8 = FpGrowth(options).Mine(db);
  ASSERT_TRUE(fp8.ok());
  ExpectIdentical(*fp8, brute, "fpgrowth(8 threads) vs brute (capped)");
}

TEST_P(DifferentialOracleTest, ClosedFamilyAgreesAcrossMiners) {
  maras::Rng rng(GetParam() + 31);
  TransactionDatabase db = RandomDb(&rng, 100, 9, 6);
  MiningOptions options{.min_support = 2};
  auto fp = FpGrowth(options).Mine(db);
  auto ap = Apriori(options).Mine(db);
  ASSERT_TRUE(fp.ok() && ap.ok());
  // Closed filter over either miner's family, serial or sharded, is the
  // same family.
  FrequentItemsetResult serial = FilterClosed(*fp);
  ExpectIdentical(serial, FilterClosed(*ap), "closed: fp vs apriori input");
  ExpectIdentical(serial, FilterClosed(*fp, 4), "closed: serial vs 4 shards");
  ExpectIdentical(serial, FilterClosed(*fp, 8), "closed: serial vs 8 shards");
  for (const FrequentItemset& fi : serial.itemsets()) {
    EXPECT_TRUE(IsClosedInDatabase(db, fi.items)) << ToString(fi.items);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialOracleTest,
                         ::testing::Values(11, 222, 3333, 44444, 555555));

// --------------------------------------------------------------------------
// Determinism suite: serial == 2-thread == 8-thread, byte for byte.
// --------------------------------------------------------------------------

faers::PreprocessResult BuildCorpus(uint64_t seed) {
  faers::GeneratorConfig config;
  config.seed = seed;
  config.n_reports = 1200;
  config.n_drugs = 300;
  config.n_adrs = 120;
  config.signals = faers::DefaultSignals(2400);
  faers::SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  EXPECT_TRUE(dataset.ok());
  faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
  auto pre = preprocessor.Process(*dataset);
  EXPECT_TRUE(pre.ok());
  return *std::move(pre);
}

class DeterminismSuite : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismSuite, ClosedSetsAndRulesIdenticalAcrossThreadCounts) {
  faers::PreprocessResult pre = BuildCorpus(GetParam());
  MiningOptions base{.min_support = 4, .max_itemset_size = 6};

  base.num_threads = 1;
  auto closed1 = MineClosed(pre.transactions, base);
  ASSERT_TRUE(closed1.ok());
  std::string closed_bytes = Serialize(*closed1);
  std::string rule_bytes = Serialize(GenerateAllPartitionRules(
      *closed1, 0.1, pre.transactions.size(), 50000));
  EXPECT_GT(closed1->size(), 0u);

  for (size_t threads : {2u, 8u}) {
    MiningOptions options = base;
    options.num_threads = threads;
    auto closed = MineClosed(pre.transactions, options);
    ASSERT_TRUE(closed.ok()) << threads << " threads";
    EXPECT_EQ(Serialize(*closed), closed_bytes) << threads << " threads";
    EXPECT_EQ(Serialize(GenerateAllPartitionRules(
                  *closed, 0.1, pre.transactions.size(), 50000)),
              rule_bytes)
        << threads << " threads";
  }
}

TEST_P(DeterminismSuite, McacRankingsIdenticalAcrossThreadCounts) {
  faers::PreprocessResult pre = BuildCorpus(GetParam() * 7 + 5);
  core::AnalyzerOptions base;
  base.mining.min_support = 4;
  base.mining.max_itemset_size = 6;

  std::string ranked_bytes;
  core::RuleSpaceStats stats1;
  for (size_t threads : {1u, 2u, 8u}) {
    core::AnalyzerOptions options = base;
    options.mining.num_threads = threads;
    core::MarasAnalyzer analyzer(options);
    auto analysis = analyzer.Analyze(pre);
    ASSERT_TRUE(analysis.ok()) << threads << " threads";
    auto ranked = core::RankMcacs(
        analysis->mcacs, core::RankingMethod::kExclusivenessConfidence, {});
    if (threads == 1) {
      EXPECT_FALSE(ranked.empty());
      ranked_bytes = Serialize(ranked);
      stats1 = analysis->stats;
    } else {
      EXPECT_EQ(Serialize(ranked), ranked_bytes) << threads << " threads";
      EXPECT_EQ(analysis->stats.total_rules, stats1.total_rules);
      EXPECT_EQ(analysis->stats.filtered_rules, stats1.filtered_rules);
      EXPECT_EQ(analysis->stats.closed_mixed, stats1.closed_mixed);
      EXPECT_EQ(analysis->stats.mcac_count, stats1.mcac_count);
    }
  }
}

TEST_P(DeterminismSuite, RepeatedParallelRunsAreStable) {
  // Same corpus, same thread count, three runs: scheduling noise must never
  // reach the output.
  faers::PreprocessResult pre = BuildCorpus(GetParam() + 99);
  MiningOptions options{.min_support = 5, .num_threads = 8};
  auto first = FpGrowth(options).Mine(pre.transactions);
  ASSERT_TRUE(first.ok());
  std::string bytes = Serialize(*first);
  for (int run = 0; run < 2; ++run) {
    auto again = FpGrowth(options).Mine(pre.transactions);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(Serialize(*again), bytes) << "run " << run;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismSuite,
                         ::testing::Values(2024, 7321, 90210));

}  // namespace
}  // namespace maras::mining
