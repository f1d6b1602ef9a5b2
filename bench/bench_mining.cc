// Micro-benchmarks for the mining substrate: FP-Growth across database
// sizes and support thresholds, closed-itemset filtering cost, FP-tree
// build (synthetic and on a paper-scale cleaned quarter), and tid-list
// support counting. `--bench_json=PATH` writes the runs
// (wall-clock, allocations per iteration, peak RSS; baseline
// bench/baselines/BENCH_mining.json) so the perf trajectory is diffable; `--smoke` runs a tiny fixture and
// fails on any result-hash disagreement between FP-Growth at 1/2/8 threads
// and the test-only Apriori oracle (the bench-smoke ctest gate).

#include <benchmark/benchmark.h>

#include "bench/alloc_counter.h"
#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "faers/generator.h"
#include "faers/preprocess.h"
#include "mining/closed_itemsets.h"
#include "mining/fpgrowth.h"
#include "tests/oracles/apriori.h"
#include "util/random.h"

namespace {

using namespace maras;
using namespace maras::mining;

// Market-basket-style database with a Zipfian item skew, matching the
// FAERS transaction shape (few very common drugs, long tail).
TransactionDatabase MakeDb(size_t transactions, size_t items,
                           double mean_len, uint64_t seed) {
  Rng rng(seed);
  ZipfTable zipf(items, 1.05);
  TransactionDatabase db;
  for (size_t t = 0; t < transactions; ++t) {
    Itemset txn;
    size_t len = 1 + static_cast<size_t>(rng.Poisson(mean_len));
    for (size_t i = 0; i < len; ++i) {
      txn.push_back(static_cast<ItemId>(zipf.Sample(&rng)));
    }
    db.Add(std::move(txn));
  }
  return db;
}

void BM_FpGrowth(benchmark::State& state) {
  TransactionDatabase db =
      MakeDb(static_cast<size_t>(state.range(0)), 400, 4.0, 7);
  MiningOptions options{.min_support = static_cast<size_t>(state.range(1)),
                        .max_itemset_size = 6};
  FpGrowth miner(options);
  size_t found = 0;
  const auto alloc0 = bench::CurrentAllocCounts();
  for (auto _ : state) {
    auto result = miner.Mine(db);
    benchmark::DoNotOptimize(found = result->size());
  }
  bench::SetAllocCounters(state, alloc0);
  state.counters["itemsets"] = static_cast<double>(found);
}
BENCHMARK(BM_FpGrowth)
    ->Args({1000, 5})
    ->Args({4000, 5})
    ->Args({4000, 20})
    ->Args({16000, 20})
    ->Unit(benchmark::kMillisecond);

void BM_ClosedFilter(benchmark::State& state) {
  TransactionDatabase db =
      MakeDb(static_cast<size_t>(state.range(0)), 400, 4.0, 7);
  MiningOptions options{.min_support = 5, .max_itemset_size = 6};
  auto all = FpGrowth(options).Mine(db);
  size_t closed_count = 0;
  const auto alloc0 = bench::CurrentAllocCounts();
  for (auto _ : state) {
    FrequentItemsetResult closed = FilterClosed(*all);
    benchmark::DoNotOptimize(closed_count = closed.size());
  }
  bench::SetAllocCounters(state, alloc0);
  state.counters["frequent"] = static_cast<double>(all->size());
  state.counters["closed"] = static_cast<double>(closed_count);
}
BENCHMARK(BM_ClosedFilter)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_FpTreeBuild(benchmark::State& state) {
  TransactionDatabase db =
      MakeDb(static_cast<size_t>(state.range(0)), 400, 4.0, 7);
  const auto alloc0 = bench::CurrentAllocCounts();
  for (auto _ : state) {
    auto tree = FpTree::Build(db, 5);
    benchmark::DoNotOptimize(tree.node_count());
  }
  bench::SetAllocCounters(state, alloc0);
}
BENCHMARK(BM_FpTreeBuild)->Arg(1000)->Arg(8000)->Unit(benchmark::kMillisecond);

// The global tree of a perfbench `quarter` mine: the paper-scale quarter,
// cleaned by the Preprocessor, built at that workload's min_support of 30.
// Counters: tree nodes and kept item occurrences (the occurrences of items
// at or above the support, each of which the build places on one path).
void BM_FpTreeBuildPaperQuarter(benchmark::State& state) {
  auto dataset = faers::SyntheticGenerator(
                     bench::PaperQuarterConfig(
                         static_cast<size_t>(state.range(0))))
                     .Generate();
  if (!dataset.ok()) {
    state.SkipWithError("generate failed");
    return;
  }
  auto prepared =
      faers::Preprocessor(faers::PreprocessOptions{}).Process(*dataset);
  if (!prepared.ok()) {
    state.SkipWithError("prep failed");
    return;
  }
  const TransactionDatabase& db = prepared->transactions;
  constexpr size_t kMinSupport = 30;
  size_t kept = 0;
  for (size_t item = 0; item < db.item_bound(); ++item) {
    const size_t support = db.ItemSupport(static_cast<ItemId>(item));
    if (support >= kMinSupport) kept += support;
  }
  size_t nodes = 0;
  const auto alloc0 = bench::CurrentAllocCounts();
  for (auto _ : state) {
    auto tree = FpTree::Build(db, kMinSupport);
    benchmark::DoNotOptimize(nodes = tree.node_count());
  }
  bench::SetAllocCounters(state, alloc0);
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["kept_occurrences"] = static_cast<double>(kept);
}
BENCHMARK(BM_FpTreeBuildPaperQuarter)
    ->Arg(125000)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

void BM_TidListSupport(benchmark::State& state) {
  TransactionDatabase db = MakeDb(20000, 400, 4.0, 7);
  Rng rng(11);
  std::vector<Itemset> queries;
  for (int i = 0; i < 64; ++i) {
    Itemset q;
    for (size_t j = 0; j < static_cast<size_t>(state.range(0)); ++j) {
      q.push_back(static_cast<ItemId>(rng.Uniform(60)));
    }
    queries.push_back(MakeItemset(std::move(q)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Support(queries[i++ % queries.size()]));
  }
}
BENCHMARK(BM_TidListSupport)->Arg(2)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

// Tiny fixed fixture, FP-Growth at every thread count plus the Apriori
// oracle: any disagreement in the canonical result hash is a correctness
// regression in the perf-tuned paths. Runs in well under a second — cheap
// enough for every ctest pass.
bool RunSmoke() {
  TransactionDatabase db = MakeDb(600, 60, 3.0, 13);
  MiningOptions base{.min_support = 3, .max_itemset_size = 5};
  struct Case {
    const char* name;
    uint64_t hash;
  };
  std::vector<Case> cases;
  for (size_t threads : {1u, 2u, 8u}) {
    MiningOptions options = base;
    options.num_threads = threads;
    auto mined = FpGrowth(options).Mine(db);
    if (!mined.ok()) {
      std::fprintf(stderr, "smoke: fp-growth failed: %s\n",
                   mined.status().ToString().c_str());
      return false;
    }
    cases.push_back({"fp-growth", bench::ResultHash(*mined)});
  }
  {
    auto mined = Apriori(base).Mine(db);
    if (!mined.ok()) return false;
    cases.push_back({"apriori", bench::ResultHash(*mined)});
  }
  bool ok = true;
  for (const Case& c : cases) {
    std::printf("smoke: %-10s result-hash %016llx\n", c.name,
                static_cast<unsigned long long>(c.hash));
    if (c.hash != cases.front().hash) ok = false;
  }
  // Closed filter, serial vs sharded, on the fp-growth result.
  auto all = FpGrowth(base).Mine(db);
  const uint64_t closed1 = bench::ResultHash(FilterClosed(*all, 1));
  const uint64_t closed4 = bench::ResultHash(FilterClosed(*all, 4));
  std::printf("smoke: closed-1   result-hash %016llx\n",
              static_cast<unsigned long long>(closed1));
  std::printf("smoke: closed-4   result-hash %016llx\n",
              static_cast<unsigned long long>(closed4));
  if (closed1 != closed4) ok = false;
  if (!ok) std::fprintf(stderr, "smoke: RESULT HASH MISMATCH\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  maras::bench::BenchMainOptions options =
      maras::bench::ParseBenchArgs(argc, argv);
  if (options.smoke) return RunSmoke() ? 0 : 1;
  return maras::bench::RunBenchmarksToJson(std::move(options),
                                           "bench_mining");
}
