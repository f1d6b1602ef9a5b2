// Thread-scaling benchmarks for the parallel mining engine: FP-Growth's
// per-item fan-out, the sharded closed-set filter, the end-to-end analyzer,
// and the multi-quarter pipeline, each swept over num_threads so the bench
// trajectory records speedup vs thread count. The serial (Arg = 1)
// measurements double as the regression baseline; every parallel
// configuration produces byte-identical output (asserted by
// mining_differential_test and by `--smoke`), so these runs compare cost
// only. `--bench_json=PATH` writes the results (wall-clock, allocations per
// iteration, thread counts, peak RSS; baseline
// bench/baselines/BENCH_parallel_mining.json) for diffing.

#include <benchmark/benchmark.h>

#include "bench/alloc_counter.h"
#include "bench/bench_json.h"
#include "core/analyzer.h"
#include "core/multi_quarter.h"
#include "faers/generator.h"
#include "faers/preprocess.h"
#include "mining/closed_itemsets.h"
#include "mining/fpgrowth.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace {

using namespace maras;
using namespace maras::mining;

// Same FAERS-shaped Zipfian workload as bench_mining, sized so the mining
// phase dominates and the fan-out has ~400 top-level items to spread.
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

void BM_ParallelFpGrowth(benchmark::State& state) {
  TransactionDatabase db = MakeDb(8000, 400, 4.0, 7);
  MiningOptions options{.min_support = 5,
                        .max_itemset_size = 6,
                        .num_threads = static_cast<size_t>(state.range(0))};
  FpGrowth miner(options);
  size_t found = 0;
  const auto alloc0 = bench::CurrentAllocCounts();
  for (auto _ : state) {
    auto result = miner.Mine(db);
    benchmark::DoNotOptimize(found = result->size());
  }
  bench::SetAllocCounters(state, alloc0);
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["itemsets"] = static_cast<double>(found);
}
BENCHMARK(BM_ParallelFpGrowth)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ParallelMineClosed(benchmark::State& state) {
  TransactionDatabase db = MakeDb(8000, 400, 4.0, 7);
  MiningOptions options{.min_support = 5,
                        .max_itemset_size = 6,
                        .num_threads = static_cast<size_t>(state.range(0))};
  size_t closed_count = 0;
  const auto alloc0 = bench::CurrentAllocCounts();
  for (auto _ : state) {
    auto closed = MineClosed(db, options);
    benchmark::DoNotOptimize(closed_count = closed->size());
  }
  bench::SetAllocCounters(state, alloc0);
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["closed"] = static_cast<double>(closed_count);
}
BENCHMARK(BM_ParallelMineClosed)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ParallelAnalyzer(benchmark::State& state) {
  faers::GeneratorConfig config;
  config.seed = 4242;
  config.n_reports = 4000;
  config.n_drugs = 600;
  config.n_adrs = 250;
  config.signals = faers::DefaultSignals(8000);
  faers::SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
  auto pre = preprocessor.Process(*dataset);

  core::AnalyzerOptions options;
  options.mining.min_support = 4;
  options.mining.max_itemset_size = 6;
  options.mining.num_threads = static_cast<size_t>(state.range(0));
  core::MarasAnalyzer analyzer(options);
  size_t mcacs = 0;
  const auto alloc0 = bench::CurrentAllocCounts();
  for (auto _ : state) {
    auto analysis = analyzer.Analyze(*pre);
    benchmark::DoNotOptimize(mcacs = analysis->mcacs.size());
  }
  bench::SetAllocCounters(state, alloc0);
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["mcacs"] = static_cast<double>(mcacs);
}
BENCHMARK(BM_ParallelAnalyzer)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ParallelMultiQuarter(benchmark::State& state) {
  // Four in-memory quarters, processed one-task-per-quarter.
  std::vector<faers::QuarterDataset> quarters;
  for (int q = 1; q <= 4; ++q) {
    faers::GeneratorConfig config;
    config.seed = 5000 + q;
    config.year = 2014;
    config.quarter = q;
    config.n_reports = 1500;
    config.n_drugs = 400;
    config.n_adrs = 150;
    faers::SyntheticGenerator generator(config);
    quarters.push_back(*generator.Generate());
  }
  core::MultiQuarterOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  core::MultiQuarterPipeline pipeline(options);
  size_t merged = 0;
  const auto alloc0 = bench::CurrentAllocCounts();
  for (auto _ : state) {
    auto run = pipeline.Run(quarters);
    benchmark::DoNotOptimize(merged = run->merged.transactions.size());
  }
  bench::SetAllocCounters(state, alloc0);
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["reports"] = static_cast<double>(merged);
}
BENCHMARK(BM_ParallelMultiQuarter)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ParallelForOverhead(benchmark::State& state) {
  // Dispatch cost per index for an empty body — the floor below which
  // parallelizing a loop cannot pay off.
  const size_t n = 10000;
  for (auto _ : state) {
    ParallelFor(static_cast<size_t>(state.range(0)), n,
                [](size_t i) { benchmark::DoNotOptimize(i); });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(4)->UseRealTime();

// Tiny fixture, thread sweep: FP-Growth and the closed pipeline must hash
// identically at every thread count (the determinism contract the parallel
// engine is built on), in Release, on every ctest pass.
bool RunSmoke() {
  TransactionDatabase db = MakeDb(800, 80, 3.0, 29);
  bool ok = true;
  uint64_t first_fp = 0, first_closed = 0;
  for (size_t threads : {1u, 2u, 8u}) {
    MiningOptions options{.min_support = 3,
                          .max_itemset_size = 5,
                          .num_threads = threads};
    auto mined = FpGrowth(options).Mine(db);
    auto closed = MineClosed(db, options);
    if (!mined.ok() || !closed.ok()) {
      std::fprintf(stderr, "smoke: mining failed at %zu threads\n", threads);
      return false;
    }
    const uint64_t fp_hash = bench::ResultHash(*mined);
    const uint64_t closed_hash = bench::ResultHash(*closed);
    std::printf(
        "smoke: threads=%zu fp-growth %016llx closed %016llx\n", threads,
        static_cast<unsigned long long>(fp_hash),
        static_cast<unsigned long long>(closed_hash));
    if (threads == 1) {
      first_fp = fp_hash;
      first_closed = closed_hash;
    } else if (fp_hash != first_fp || closed_hash != first_closed) {
      ok = false;
    }
  }
  if (!ok) std::fprintf(stderr, "smoke: RESULT HASH MISMATCH\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  maras::bench::BenchMainOptions options =
      maras::bench::ParseBenchArgs(argc, argv);
  if (options.smoke) return RunSmoke() ? 0 : 1;
  return maras::bench::RunBenchmarksToJson(std::move(options),
                                           "bench_parallel_mining");
}
