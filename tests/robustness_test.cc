// Seed- and parameter-robustness sweeps: the pipeline's guarantees must not
// depend on one lucky random stream. Parameterized over generator seeds and
// over mining thresholds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "core/analyzer.h"
#include "core/export.h"
#include "faers/ascii_format.h"
#include "faers/generator.h"
#include "faers/preprocess.h"
#include "mining/closed_itemsets.h"
#include "mining/fpgrowth.h"
#include "util/run_context.h"
#include "util/thread_pool.h"

namespace maras {
namespace {

faers::PreprocessResult BuildCorpus(uint64_t seed, size_t reports) {
  faers::GeneratorConfig config;
  config.seed = seed;
  config.n_reports = reports;
  config.n_drugs = 500;
  config.n_adrs = 200;
  config.signals = faers::DefaultSignals(reports * 2);  // strong signals
  faers::SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  EXPECT_TRUE(dataset.ok());
  faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
  auto pre = preprocessor.Process(*dataset);
  EXPECT_TRUE(pre.ok());
  return *std::move(pre);
}

class SeedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweepTest, CaseStudySignalsRecoveredAtEverySeed) {
  faers::PreprocessResult pre = BuildCorpus(GetParam(), 3000);
  core::AnalyzerOptions options;
  options.mining.min_support = 4;
  options.mining.max_itemset_size = 7;
  core::MarasAnalyzer analyzer(options);
  auto analysis = analyzer.Analyze(pre);
  ASSERT_TRUE(analysis.ok());
  auto ranked = core::RankMcacs(
      analysis->mcacs, core::RankingMethod::kExclusivenessConfidence, {});
  ASSERT_FALSE(ranked.empty());

  // The three headline case studies must always be mined.
  for (const auto* name :
       {"IBUPROFEN", "METAMIZOLE", "PREVACID", "NEXIUM"}) {
    EXPECT_TRUE(pre.items.Lookup(name).ok()) << name;
  }
  auto find_pair = [&](const char* d1, const char* d2, const char* adr) {
    auto id1 = pre.items.Lookup(d1);
    auto id2 = pre.items.Lookup(d2);
    auto ida = pre.items.Lookup(adr);
    if (!id1.ok() || !id2.ok() || !ida.ok()) return false;
    mining::Itemset drugs = mining::MakeItemset({*id1, *id2});
    for (const auto& entry : ranked) {
      if (mining::IsSubset(drugs, entry.mcac.target.drugs) &&
          mining::Contains(entry.mcac.target.adrs, *ida)) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(find_pair("IBUPROFEN", "METAMIZOLE", "ACUTE RENAL FAILURE"));
  EXPECT_TRUE(find_pair("PREVACID", "NEXIUM", "OSTEOPOROSIS"));
  EXPECT_TRUE(find_pair("ZOMETA", "PRILOSEC", "OSTEONECROSIS OF JAW"));
}

TEST_P(SeedSweepTest, AnalyzerInvariantsHoldAtEverySeed) {
  faers::PreprocessResult pre = BuildCorpus(GetParam() + 17, 2000);
  core::AnalyzerOptions options;
  options.mining.min_support = 5;
  core::MarasAnalyzer analyzer(options);
  auto analysis = analyzer.Analyze(pre);
  ASSERT_TRUE(analysis.ok());
  EXPECT_GE(analysis->stats.total_rules, analysis->stats.filtered_rules);
  EXPECT_GE(analysis->stats.filtered_rules, analysis->stats.closed_mixed);
  EXPECT_GE(analysis->stats.closed_mixed, analysis->stats.mcac_count);
  std::set<mining::Itemset> seen;
  for (const core::Mcac& mcac : analysis->mcacs) {
    // Targets are unique, closed, supported-by-construction rules.
    EXPECT_TRUE(seen.insert(mcac.target.CompleteItemset()).second);
    EXPECT_TRUE(mining::IsClosedInDatabase(pre.transactions,
                                           mcac.target.CompleteItemset()));
    EXPECT_GE(mcac.target.drugs.size(), 2u);
    EXPECT_EQ(mcac.levels.size(), mcac.target.drugs.size() - 1);
    EXPECT_EQ(mcac.ContextSize(),
              (1u << mcac.target.drugs.size()) - 2u);
    EXPECT_GT(mcac.target.confidence, 0.0);
    EXPECT_LE(mcac.target.confidence, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(11, 222, 3333, 44444, 555555));

TEST(DeterminismTest, FullPipelineIsByteIdenticalAcrossRuns) {
  // Two completely independent end-to-end runs (generation, cleaning,
  // mining, clustering, ranking, export) must agree byte for byte — the
  // property every bench and every recorded experiment relies on.
  auto run_once = []() {
    faers::PreprocessResult pre = BuildCorpus(31337, 1500);
    core::AnalyzerOptions options;
    options.mining.min_support = 5;
    core::MarasAnalyzer analyzer(options);
    auto analysis = analyzer.Analyze(pre);
    EXPECT_TRUE(analysis.ok());
    return core::ExportAnalysisToJson(
        *analysis, pre.items,
        core::RankingMethod::kExclusivenessConfidence, {});
  };
  std::string first = run_once();
  std::string second = run_once();
  EXPECT_GT(first.size(), 1000u);
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, StrictIngestOfWrittenQuarterIsByteIdentical) {
  // The strict (default) ingest policy must be an exact identity on clean
  // data: analyzing a quarter straight from memory and analyzing the same
  // quarter after an ASCII write + strict re-read must export byte-identical
  // JSON.
  faers::GeneratorConfig config;
  config.seed = 424242;
  config.n_reports = 1200;
  config.n_drugs = 400;
  config.n_adrs = 150;
  config.signals = faers::DefaultSignals(2400);
  faers::SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  ASSERT_TRUE(dataset.ok());

  auto export_json = [](const faers::QuarterDataset& quarter) {
    faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
    auto pre = preprocessor.Process(quarter);
    EXPECT_TRUE(pre.ok());
    core::AnalyzerOptions options;
    options.mining.min_support = 5;
    auto analysis = core::MarasAnalyzer(options).Analyze(*pre);
    EXPECT_TRUE(analysis.ok());
    return core::ExportAnalysisToJson(
        *analysis, pre->items,
        core::RankingMethod::kExclusivenessConfidence, {});
  };

  std::string direct = export_json(*dataset);

  auto files = faers::WriteAsciiQuarter(*dataset);
  ASSERT_TRUE(files.ok());
  faers::IngestReport report;
  auto reread = faers::ReadAsciiQuarter(*files, dataset->year,
                                        dataset->quarter,
                                        faers::IngestOptions{}, &report);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(report.rows_rejected, 0u);
  EXPECT_TRUE(report.quarantined.empty());
  ASSERT_EQ(reread->reports.size(), dataset->reports.size());

  std::string roundtripped = export_json(*reread);
  EXPECT_GT(direct.size(), 1000u);
  EXPECT_EQ(direct, roundtripped);
}

class SupportSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SupportSweepTest, McacCountMonotoneInSupportThreshold) {
  static faers::PreprocessResult* pre = nullptr;
  if (pre == nullptr) pre = new faers::PreprocessResult(BuildCorpus(9, 2500));
  core::AnalyzerOptions lo_options;
  lo_options.mining.min_support = GetParam();
  core::AnalyzerOptions hi_options;
  hi_options.mining.min_support = GetParam() + 3;
  auto lo = core::MarasAnalyzer(lo_options).Analyze(*pre);
  auto hi = core::MarasAnalyzer(hi_options).Analyze(*pre);
  ASSERT_TRUE(lo.ok());
  ASSERT_TRUE(hi.ok());
  EXPECT_GE(lo->stats.total_rules, hi->stats.total_rules);
  EXPECT_GE(lo->stats.filtered_rules, hi->stats.filtered_rules);
  EXPECT_GE(lo->stats.mcac_count, hi->stats.mcac_count);
  // Every higher-threshold target also exists at the lower threshold.
  std::set<mining::Itemset> lo_targets;
  for (const auto& mcac : lo->mcacs) {
    lo_targets.insert(mcac.target.CompleteItemset());
  }
  for (const auto& mcac : hi->mcacs) {
    EXPECT_TRUE(lo_targets.count(mcac.target.CompleteItemset()) > 0)
        << mining::ToString(mcac.target.CompleteItemset());
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SupportSweepTest,
                         ::testing::Values(4, 6, 9, 14));

// The concurrency robustness cases below are the ones the MARAS_TSAN build
// exists for: they hammer the worker loop's start-up and join, the shared
// read-only mining structures, and the parallel pipeline layers, so
// ThreadSanitizer gets to observe every lock-ordering and publication
// pattern the library uses.

TEST(ConcurrencyRobustnessTest, PoolSurvivesChurnAndMixedWorkloads) {
  // Every parallel region starts and joins its own workers, so back-to-back
  // regions of varying width churn thread start-up and teardown.
  for (int round = 0; round < 20; ++round) {
    const size_t threads = 1 + static_cast<size_t>(round) % 4;
    std::atomic<uint64_t> sum{0};
    ParallelFor(threads, 50, [&sum](size_t t) { sum.fetch_add(t); });
    EXPECT_EQ(sum.load(), 1225u);  // 0 + 1 + ... + 49
    ParallelFor(threads, 10, [&sum](size_t) { sum.fetch_add(1); });
    EXPECT_EQ(sum.load(), 1235u);
  }
}

TEST(ConcurrencyRobustnessTest, ParallelMiningMatchesSerialUnderStress) {
  // Repeated parallel runs over one shared corpus: every FP-Growth task
  // reads the same global tree while sibling tasks run; any unsound
  // publication shows up as a TSAN report or an output diff.
  faers::PreprocessResult pre = BuildCorpus(777, 1500);
  mining::MiningOptions serial{.min_support = 5, .max_itemset_size = 6};
  auto expect = mining::FpGrowth(serial).Mine(pre.transactions);
  ASSERT_TRUE(expect.ok());
  for (size_t threads : {2u, 4u, 8u}) {
    mining::MiningOptions options = serial;
    options.num_threads = threads;
    auto got = mining::FpGrowth(options).Mine(pre.transactions);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), expect->size()) << threads << " threads";
    for (size_t i = 0; i < got->size(); ++i) {
      ASSERT_EQ(got->itemsets()[i].items, expect->itemsets()[i].items);
      ASSERT_EQ(got->itemsets()[i].support, expect->itemsets()[i].support);
    }
  }
}

TEST(ConcurrencyRobustnessTest, ParallelForWritesEverySlotOnce) {
  // Large fan-out with tiny tasks: maximizes index-counter contention
  // relative to work, the worst case for the dispatch path.
  const size_t n = 20000;
  std::vector<uint8_t> hits(n, 0);
  ParallelFor(8, n, [&hits](size_t i) { ++hits[i]; });
  size_t total = 0;
  for (uint8_t h : hits) total += h;
  EXPECT_EQ(total, n);
}

// ---------------------------------------------------------------------------
// Resource governance under a pathological mine. min_support = 2 with no
// size cap on a dense corpus is the paper's own worst case (Section 1.3
// mines at very low support): ungoverned it explodes combinatorially. A
// governed mine must stop with the right code — promptly, without hanging
// or exhausting the machine.
// ---------------------------------------------------------------------------

// Every transaction shares 40 items, so every one of the 2^40 subsets is
// frequent at min_support = 2: an ungoverned unbounded mine of this database
// cannot finish. The governed one must trip instead of hanging or OOMing.
mining::TransactionDatabase ExplosiveDatabase() {
  mining::TransactionDatabase db;
  for (size_t t = 0; t < 200; ++t) {
    mining::Itemset items;
    for (mining::ItemId i = 0; i < 40; ++i) items.push_back(i);
    items.push_back(static_cast<mining::ItemId>(40 + (t % 20)));
    db.Add(items);
  }
  return db;
}

mining::MiningOptions Pathological(const RunContext* ctx,
                                   size_t num_threads) {
  mining::MiningOptions options;
  options.min_support = 2;
  options.max_itemset_size = 0;  // unbounded
  options.num_threads = num_threads;
  options.context = ctx;
  return options;
}

TEST(GovernanceRobustnessTest, DeadlineTripsWithinTwiceTheAllottedTime) {
  mining::TransactionDatabase db = ExplosiveDatabase();
  for (size_t threads : {1u, 8u}) {
    RunContext ctx;
    constexpr int64_t kDeadlineMs = 500;
    ctx.deadline = Deadline::AfterMillis(kDeadlineMs);
    auto start = std::chrono::steady_clock::now();
    auto mined = mining::FpGrowth(Pathological(&ctx, threads)).Mine(db);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    ASSERT_FALSE(mined.ok())
        << threads << " threads: the explosive mine finished?!";
    ASSERT_TRUE(mined.status().IsDeadlineExceeded())
        << mined.status().ToString();
    // The poll interval bounds overshoot: well within 2x the deadline.
    EXPECT_LT(elapsed, 2 * kDeadlineMs) << threads << " threads";
    // Provenance names the stage that tripped.
    EXPECT_NE(mined.status().ToString().find("fp-growth"), std::string::npos)
        << mined.status().ToString();
  }
}

TEST(GovernanceRobustnessTest, MemoryBudgetTripsAsResourceExhausted) {
  mining::TransactionDatabase db = ExplosiveDatabase();
  for (size_t threads : {1u, 8u}) {
    MemoryBudget budget(1 << 20);  // 1 MiB: far below the explosion
    RunContext ctx;
    ctx.budget = &budget;
    auto mined = mining::FpGrowth(Pathological(&ctx, threads)).Mine(db);
    ASSERT_TRUE(mined.status().IsResourceExhausted())
        << threads << " threads: " << mined.status().ToString();
    EXPECT_NE(mined.status().ToString().find("memory budget"),
              std::string::npos)
        << mined.status().ToString();
    // The failed mine released its charges, so the budget is reusable.
    EXPECT_FALSE(budget.Exhausted());
    EXPECT_GT(budget.peak(), 0u);
  }
}

TEST(GovernanceRobustnessTest, ExternalCancellationStopsTheMine) {
  mining::TransactionDatabase db = ExplosiveDatabase();
  CancellationToken token;
  RunContext ctx;
  ctx.cancel = &token;
  std::thread watchdog([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.Cancel();
  });
  auto mined = mining::FpGrowth(Pathological(&ctx, 4)).Mine(db);
  watchdog.join();
  ASSERT_TRUE(mined.status().IsCancelled()) << mined.status().ToString();
}

// Item i appears in transaction t iff t % i == 0, so supp(S) = N / lcm(S):
// escalating min_support genuinely shrinks the family, giving the
// degradation ladder something to converge on (unlike ExplosiveDatabase,
// where every subset has the same support).
mining::TransactionDatabase GradedDatabase() {
  mining::TransactionDatabase db;
  for (size_t t = 1; t <= 2000; ++t) {
    mining::Itemset items;
    for (mining::ItemId i = 2; i <= 40; ++i) {
      if (t % i == 0) items.push_back(i);
    }
    if (!items.empty()) db.Add(items);
  }
  return db;
}

TEST(GovernanceRobustnessTest, DegradationLadderYieldsTruncatedResult) {
  mining::TransactionDatabase db = GradedDatabase();
  MemoryBudget budget(1 << 16);  // ~a few hundred itemsets
  RunContext ctx;
  ctx.budget = &budget;
  core::DegradationOptions degradation;
  degradation.enabled = true;
  degradation.max_retries = 10;
  degradation.support_factor = 4.0;
  auto mined =
      core::MineWithDegradation(db, Pathological(&ctx, 1), degradation);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  EXPECT_TRUE(mined->truncated);
  EXPECT_GT(mined->min_support_used, 2u);
  ASSERT_FALSE(mined->notes.empty());
  EXPECT_NE(mined->notes[0].find("memory budget exhausted"),
            std::string::npos)
      << mined->notes[0];
  EXPECT_GT(mined->frequent.size(), 0u)
      << "the degraded mine must still produce the high-support family";
}

TEST(GovernanceRobustnessTest, DegradationNeverRetriesDeadlineTrips) {
  mining::TransactionDatabase db = ExplosiveDatabase();
  RunContext ctx;
  ctx.deadline = Deadline::AfterMillis(200);
  core::DegradationOptions degradation;
  degradation.enabled = true;
  degradation.max_retries = 10;
  auto mined =
      core::MineWithDegradation(db, Pathological(&ctx, 1), degradation);
  ASSERT_TRUE(mined.status().IsDeadlineExceeded())
      << mined.status().ToString();
}

TEST(GovernanceRobustnessTest, UngovernedBoundedMineStillSucceeds) {
  // Governance is opt-in: the explosive database with a size cap and no
  // context mines fine.
  mining::TransactionDatabase db = ExplosiveDatabase();
  mining::MiningOptions options;
  options.min_support = 20;
  options.max_itemset_size = 2;
  auto mined = mining::FpGrowth(options).Mine(db);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  EXPECT_GT(mined->size(), 0u);
}

}  // namespace
}  // namespace maras
