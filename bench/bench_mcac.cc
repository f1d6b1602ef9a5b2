// MCAC-construction micro-benchmarks: the per-target subset-support fan-out
// that dominates stage 4, measured on a dense synthetic corpus whose targets
// overlap heavily in drug subsets. Benchmarks cover the one-time lattice
// build, BuildMcac (every context support a descent in the concept
// lattice, the only production path), and the test-only enumeration oracle
// (every subset counted from the transaction database) as the baseline.
// The rules-stage rows time BuildRulesStage over a prebuilt lattice against
// the test-only database rules stage, on four generated 12k-report
// quarters mined like perfbench's `year` workload, so the stage is timed
// apart from the lattice build that perfbench's staged trace folds into
// its rules span. BM_LatticeBuildYear times the lattice build itself on
// that family.
// `--bench_json` writes bench/baselines/BENCH_mcac.json; `--smoke` is the
// Release-mode result-hash gate: BuildRankedStage over the lattice must be
// byte-identical to the enumeration oracle plus RankMcacs, and the
// lattice-backed rules stage to the database rules stage, at 1, 2 and 8
// threads; the `year` family's covering-edge arenas must also hash the same
// at 1, 2 and 8 threads.

#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "core/analysis_stages.h"
#include "core/analyzer.h"
#include "core/checkpoint.h"
#include "core/drug_adr_rule.h"
#include "core/mcac.h"
#include "core/ranking.h"
#include "mining/closed_itemsets.h"
#include "mining/concept_lattice.h"
#include "mining/item_dictionary.h"
#include "mining/itemset.h"
#include "mining/transaction_db.h"
#include "tests/oracles/mcac_enumeration.h"
#include "tests/oracles/rules_database.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/run_context.h"

namespace {

using namespace maras;

// Dense MCAC workload: kTargets sliding windows of kWindow drugs over a
// kDrugs-drug alphabet, each window reported kCopies times with its ADR, so
// adjacent targets share all subsets of their (kWindow − 1)-drug overlap.
// Singleton noise reports fatten every database scan the enumeration
// baseline pays without growing the closed family beyond {drug, adr} pairs.
constexpr size_t kDrugs = 30;
constexpr size_t kWindow = 6;
constexpr size_t kTargets = kDrugs - kWindow + 1;  // 25
constexpr size_t kCopies = 8;
constexpr size_t kNoiseReports = 12000;
constexpr size_t kAdrs = 4;  // targets all share adr 0; noise spreads over 4

struct Fixture {
  mining::ItemDictionary items;
  mining::TransactionDatabase db;
  std::vector<core::DrugAdrRule> targets;
  mining::FrequentItemsetResult closed;
  mining::ConceptLattice lattice;
};

Fixture MakeFixture() {
  Fixture fixture;
  std::vector<mining::ItemId> drugs;
  std::vector<mining::ItemId> adrs;
  for (size_t d = 0; d < kDrugs; ++d) {
    auto id = fixture.items.Intern("DRUG" + std::to_string(d),
                                   mining::ItemDomain::kDrug);
    MARAS_CHECK(id.ok());
    drugs.push_back(*id);
  }
  for (size_t a = 0; a < kAdrs; ++a) {
    auto id = fixture.items.Intern("ADE" + std::to_string(a),
                                   mining::ItemDomain::kAdr);
    MARAS_CHECK(id.ok());
    adrs.push_back(*id);
  }

  std::vector<mining::Itemset> wholes;
  for (size_t t = 0; t < kTargets; ++t) {
    mining::Itemset txn;
    for (size_t i = 0; i < kWindow; ++i) txn.push_back(drugs[t + i]);
    txn.push_back(adrs[0]);
    txn = mining::MakeItemset(std::move(txn));
    for (size_t c = 0; c < kCopies; ++c) fixture.db.Add(txn);
    wholes.push_back(std::move(txn));
  }
  Rng rng(97);
  for (size_t r = 0; r < kNoiseReports; ++r) {
    mining::Itemset txn{drugs[rng.Uniform(kDrugs)],
                        adrs[rng.Uniform(kAdrs)]};
    fixture.db.Add(mining::MakeItemset(std::move(txn)));
  }

  for (const mining::Itemset& whole : wholes) {
    auto rule = core::BuildRule(whole, fixture.items, fixture.db);
    MARAS_CHECK(rule.ok()) << rule.status().ToString();
    fixture.targets.push_back(*std::move(rule));
  }

  // Uncapped mine: the descent exactness precondition holds for free.
  mining::MiningOptions options{.min_support = 4,
                                .max_itemset_size = 0,
                                .num_threads = 4};
  auto closed = mining::MineClosed(fixture.db, options);
  MARAS_CHECK(closed.ok()) << closed.status().ToString();
  fixture.closed = *std::move(closed);

  const RunContext ctx;
  auto lattice =
      mining::ConceptLattice::Build(fixture.closed, /*num_threads=*/4, ctx);
  MARAS_CHECK(lattice.ok()) << lattice.status().ToString();
  fixture.lattice = *std::move(lattice);
  return fixture;
}

const Fixture& SharedFixture() {
  static const Fixture* fixture = new Fixture(MakeFixture());
  return *fixture;
}

// Rules-stage workload: perfbench's `year` batch in memory
// (bench::YearCorpus), mined at min_support 6 with itemsets capped at 7,
// closed and turned into a lattice once.
struct RulesFixture {
  faers::PreprocessResult corpus;
  core::AnalyzerOptions analyzer;
  mining::FrequentItemsetResult closed;
  mining::ConceptLattice lattice;
};

RulesFixture MakeRulesFixture() {
  RulesFixture fixture;
  fixture.corpus = bench::YearCorpus();
  fixture.analyzer.mining.min_support = 6;
  fixture.analyzer.mining.max_itemset_size = 7;
  fixture.analyzer.mining.num_threads = 2;
  const RunContext ctx;
  auto mined = core::MineWithDegradation(fixture.corpus.transactions,
                                         fixture.analyzer.mining,
                                         fixture.analyzer.degradation);
  MARAS_CHECK(mined.ok()) << mined.status().ToString();
  auto closed = core::BuildClosedStage(*std::move(mined), fixture.corpus.items,
                                       fixture.analyzer, ctx);
  MARAS_CHECK(closed.ok()) << closed.status().ToString();
  fixture.closed = std::move(closed->closed);
  auto lattice =
      core::BuildLatticeStage(fixture.closed, fixture.analyzer, ctx);
  MARAS_CHECK(lattice.ok()) << lattice.status().ToString();
  fixture.lattice = *std::move(lattice);
  return fixture;
}

const RulesFixture& SharedRulesFixture() {
  static const RulesFixture* fixture = new RulesFixture(MakeRulesFixture());
  return *fixture;
}

// Builds every target's MCAC with `build` and returns the context size.
template <typename BuildFn>
size_t BuildAll(const std::vector<core::DrugAdrRule>& targets,
                BuildFn&& build) {
  size_t context_rules = 0;
  for (const core::DrugAdrRule& target : targets) {
    maras::StatusOr<core::Mcac> mcac = build(target);
    MARAS_CHECK(mcac.ok()) << mcac.status().ToString();
    context_rules += mcac->ContextSize();
  }
  return context_rules;
}

size_t BuildAllLattice(const Fixture& fixture) {
  return BuildAll(fixture.targets, [&](const core::DrugAdrRule& target) {
    return core::BuildMcac(target, fixture.lattice, fixture.db.size());
  });
}

size_t BuildAllEnumerated(const Fixture& fixture) {
  return BuildAll(fixture.targets, [&](const core::DrugAdrRule& target) {
    return core::EnumerateMcac(target, fixture.db);
  });
}

// One-time cost of stage 3.5: nodes + covering edges over the closed family.
void BM_LatticeBuild(benchmark::State& state) {
  const Fixture& fixture = SharedFixture();
  const RunContext ctx;
  const auto threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto lattice = mining::ConceptLattice::Build(fixture.closed, threads, ctx);
    MARAS_CHECK(lattice.ok());
    benchmark::DoNotOptimize(lattice);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["nodes"] = static_cast<double>(fixture.lattice.node_count());
  state.counters["edges"] = static_cast<double>(fixture.lattice.edge_count());
  state.counters["arena_bytes"] =
      static_cast<double>(fixture.lattice.MemoryFootprint());
}
BENCHMARK(BM_LatticeBuild)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The lattice build at `year` scale: perfbench's family built in memory.
void BM_LatticeBuildYear(benchmark::State& state) {
  const RulesFixture& fixture = SharedRulesFixture();
  const RunContext ctx;
  const auto threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto lattice = mining::ConceptLattice::Build(fixture.closed, threads, ctx);
    MARAS_CHECK(lattice.ok());
    benchmark::DoNotOptimize(lattice);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["nodes"] = static_cast<double>(fixture.lattice.node_count());
  state.counters["edges"] = static_cast<double>(fixture.lattice.edge_count());
}
BENCHMARK(BM_LatticeBuildYear)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Enumeration baseline (the test-only oracle): every subset support is a
// database count.
void BM_McacEnumeration(benchmark::State& state) {
  const Fixture& fixture = SharedFixture();
  size_t context_rules = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(context_rules = BuildAllEnumerated(fixture));
  }
  state.counters["context_rules"] = static_cast<double>(context_rules);
  state.counters["targets_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kTargets),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_McacEnumeration)->Unit(benchmark::kMillisecond);

// The production path: BuildMcac per target, every context support a
// descent from the target's lattice node.
void BM_McacLattice(benchmark::State& state) {
  const Fixture& fixture = SharedFixture();
  size_t context_rules = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(context_rules = BuildAllLattice(fixture));
  }
  state.counters["context_rules"] = static_cast<double>(context_rules);
  state.counters["targets_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kTargets),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_McacLattice)->Unit(benchmark::kMillisecond);

// The production rules stage with the lattice prebuilt: every measure a
// lattice descent, the database asked only for candidates at the size cap.
void BM_RulesStageLattice(benchmark::State& state) {
  const RulesFixture& fixture = SharedRulesFixture();
  const RunContext ctx;
  core::AnalyzerOptions analyzer = fixture.analyzer;
  analyzer.mining.num_threads = static_cast<size_t>(state.range(0));
  size_t rules = 0;
  for (auto _ : state) {
    auto built = core::BuildRulesStage(
        fixture.closed, fixture.corpus.items, fixture.corpus.transactions,
        fixture.lattice, analyzer, ctx);
    MARAS_CHECK(built.ok()) << built.status().ToString();
    benchmark::DoNotOptimize(rules = built->size());
  }
  state.counters["threads"] = static_cast<double>(analyzer.mining.num_threads);
  state.counters["closed"] = static_cast<double>(fixture.closed.size());
  state.counters["rules"] = static_cast<double>(rules);
}
BENCHMARK(BM_RulesStageLattice)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Database baseline (the test-only oracle, serial): every candidate checked
// with IsClosedInDatabase and measured with three database counts.
void BM_RulesStageDatabase(benchmark::State& state) {
  const RulesFixture& fixture = SharedRulesFixture();
  size_t rules = 0;
  for (auto _ : state) {
    auto built =
        core::DatabaseRules(fixture.closed, fixture.corpus.items,
                            fixture.corpus.transactions, fixture.analyzer);
    MARAS_CHECK(built.ok()) << built.status().ToString();
    benchmark::DoNotOptimize(rules = built->size());
  }
  state.counters["threads"] = 1;
  state.counters["closed"] = static_cast<double>(fixture.closed.size());
  state.counters["rules"] = static_cast<double>(rules);
}
BENCHMARK(BM_RulesStageDatabase)->Unit(benchmark::kMillisecond)->UseRealTime();

// FNV-1a over both covering-edge arenas, node by node (edge count, then the
// edge ids), so a hash match means byte-identical CSR arenas.
uint64_t EdgeArenaHash(const mining::ConceptLattice& lattice) {
  std::string bytes;
  const auto append = [&bytes](std::span<const uint32_t> edges) {
    const uint32_t count = static_cast<uint32_t>(edges.size());
    bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
    bytes.append(reinterpret_cast<const char*>(edges.data()),
                 edges.size() * sizeof(uint32_t));
  };
  for (uint32_t v = 0; v < lattice.node_count(); ++v) {
    append(lattice.Subsets(v));
  }
  for (uint32_t v = 0; v < lattice.node_count(); ++v) {
    append(lattice.Supersets(v));
  }
  return core::Fnv1a64(bytes);
}

// Release-mode byte-identity gate (the bench-smoke ctest label): the
// lattice-backed stage must reproduce the enumeration oracle's bytes
// exactly, at every thread count, and enumeration-vs-lattice timing is
// printed so the speedup the baseline JSON records is visible in the smoke
// log too.
bool RunSmoke() {
  const Fixture& fixture = SharedFixture();
  const RunContext ctx;
  bool ok = true;

  core::AnalyzerOptions options;
  options.mining.min_support = 4;
  options.mining.max_itemset_size = 0;
  const core::RankingMethod method = core::RankingMethod::kExclusivenessLift;

  auto oracle = core::EnumerateMcacs(fixture.targets, fixture.db);
  MARAS_CHECK(oracle.ok()) << oracle.status().ToString();
  const std::string want = core::EncodeRankedMcacs(
      core::RankMcacs(*oracle, method, options.exclusiveness));
  std::printf("smoke: enumeration  result-hash %016llx\n",
              static_cast<unsigned long long>(core::Fnv1a64(want)));
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    options.mining.num_threads = threads;
    auto latticed = core::BuildRankedStage(fixture.targets, fixture.items,
                                           fixture.db, method, options, ctx,
                                           &fixture.lattice);
    MARAS_CHECK(latticed.ok()) << latticed.status().ToString();
    const std::string lattice_bytes = core::EncodeRankedMcacs(*latticed);
    std::printf("smoke: lattice      result-hash %016llx (threads=%zu)\n",
                static_cast<unsigned long long>(core::Fnv1a64(lattice_bytes)),
                threads);
    if (lattice_bytes != want) {
      std::fprintf(stderr,
                   "smoke: lattice/enumeration bytes diverge at %zu threads\n",
                   threads);
      ok = false;
    }
  }

  // Rules stage: lattice-backed vs the database oracle, on the same family.
  auto database_rules =
      core::DatabaseRules(fixture.closed, fixture.items, fixture.db, options);
  MARAS_CHECK(database_rules.ok()) << database_rules.status().ToString();
  const std::string want_rules = core::EncodeRules(*database_rules);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    options.mining.num_threads = threads;
    auto rules = core::BuildRulesStage(fixture.closed, fixture.items,
                                       fixture.db, fixture.lattice, options,
                                       ctx);
    MARAS_CHECK(rules.ok()) << rules.status().ToString();
    MARAS_CHECK(!rules->empty());
    const std::string rule_bytes = core::EncodeRules(*rules);
    std::printf("smoke: rules        result-hash %016llx (threads=%zu)\n",
                static_cast<unsigned long long>(core::Fnv1a64(rule_bytes)),
                threads);
    if (rule_bytes != want_rules) {
      std::fprintf(stderr,
                   "smoke: lattice/database rules diverge at %zu threads\n",
                   threads);
      ok = false;
    }
  }

  // Lattice build at `year` scale: the covering-edge arenas must hash to
  // the pinned value at every thread count. A change to
  // ConceptLattice::Build must leave the edges (and so this hash) alone.
  const RulesFixture& year = SharedRulesFixture();
  constexpr uint64_t kYearEdgeHash = 0x46db22b31bc8ad4cULL;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    auto lattice = mining::ConceptLattice::Build(year.closed, threads, ctx);
    MARAS_CHECK(lattice.ok()) << lattice.status().ToString();
    const uint64_t edges = EdgeArenaHash(*lattice);
    std::printf(
        "smoke: year lattice edge-hash %016llx (nodes=%zu edges=%zu "
        "threads=%zu)\n",
        static_cast<unsigned long long>(edges), lattice->node_count(),
        lattice->edge_count(), threads);
    if (edges != kYearEdgeHash) {
      std::fprintf(stderr,
                   "smoke: year lattice edge-hash is not %016llx at %zu "
                   "threads\n",
                   static_cast<unsigned long long>(kYearEdgeHash), threads);
      ok = false;
    }
  }

  // Informational timing: single-threaded fan-out, enumeration vs lattice.
  const auto time_pass = [&](size_t (*pass)(const Fixture&)) {
    const auto start = std::chrono::steady_clock::now();
    const size_t rules = pass(fixture);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    MARAS_CHECK(rules > 0);
    return std::chrono::duration<double, std::milli>(elapsed).count();
  };
  const double enum_ms = time_pass(BuildAllEnumerated);
  const double lattice_ms = time_pass(BuildAllLattice);
  std::printf(
      "smoke: fan-out over %zu targets: enumeration %.2f ms, lattice %.2f ms "
      "(%.1fx)\n",
      fixture.targets.size(), enum_ms, lattice_ms,
      lattice_ms > 0 ? enum_ms / lattice_ms : 0.0);

  if (!ok) std::fprintf(stderr, "smoke: RESULT HASH MISMATCH\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  maras::bench::BenchMainOptions options =
      maras::bench::ParseBenchArgs(argc, argv);
  if (options.smoke) return RunSmoke() ? 0 : 1;
  return maras::bench::RunBenchmarksToJson(std::move(options), "bench_mcac");
}
