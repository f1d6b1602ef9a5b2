// Stratified / disproportionality statistics bench, two personalities:
//
//   * default: google-benchmark micro-benchmarks of the batched SoA
//     contingency path (MakeContingencyTables / EvaluateDisproportionality
//     Batch) against the one-rule scalar loop, and of the bitmap-kernel
//     stratum tables against the scalar merge reference — written by
//     `--bench_json=PATH` (wall-clock, allocs/iteration, peak RSS) for
//     the committed baseline in bench/baselines/.
//   * --shape: the original harness — for every mined cluster, contrast
//     the crude reporting odds ratio with the sex/age Mantel–Haenszel
//     pooled estimate and check every injected ground-truth signal
//     survives stratification (DESIGN.md experiment B2).
//
// `--smoke` runs the batch paths on a small fixture and fails unless every
// lane matches the scalar path exactly — cells and derived doubles both.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "core/stratified.h"
#include "util/random.h"
#include "util/string_util.h"

namespace {

using namespace maras;

// Synthetic screening workload: a Zipf-skewed report database with
// per-report demographics, plus a rule panel over the frequent items.
struct StratWorkload {
  mining::TransactionDatabase db;
  std::vector<faers::CaseDemographics> demographics;
  std::vector<core::DrugAdrRule> rules;
};

StratWorkload MakeWorkload(size_t reports, size_t items, size_t rule_count,
                           uint64_t seed) {
  Rng rng(seed);
  ZipfTable zipf(items, 1.05);
  StratWorkload w;
  for (size_t t = 0; t < reports; ++t) {
    mining::Itemset txn;
    size_t len = 2 + static_cast<size_t>(rng.Poisson(4.0));
    for (size_t i = 0; i < len; ++i) {
      txn.push_back(static_cast<mining::ItemId>(zipf.Sample(&rng)));
    }
    w.db.Add(std::move(txn));
    faers::CaseDemographics demo;
    demo.sex = static_cast<faers::Sex>(rng.Uniform(3));
    demo.age = rng.Bernoulli(0.1) ? -1.0 : static_cast<double>(rng.Uniform(95));
    w.demographics.push_back(demo);
  }
  for (size_t r = 0; r < rule_count; ++r) {
    core::DrugAdrRule rule;
    mining::Itemset drugs;
    for (size_t i = 1 + rng.Uniform(2); i > 0; --i) {
      drugs.push_back(static_cast<mining::ItemId>(zipf.Sample(&rng)));
    }
    rule.drugs = mining::MakeItemset(std::move(drugs));
    rule.adrs = mining::MakeItemset(
        {static_cast<mining::ItemId>(zipf.Sample(&rng))});
    w.rules.push_back(std::move(rule));
  }
  return w;
}

void BM_DisproportionalityScalarLoop(benchmark::State& state) {
  StratWorkload w = MakeWorkload(static_cast<size_t>(state.range(0)), 150,
                                 static_cast<size_t>(state.range(1)), 7);
  size_t signals = 0;
  const auto alloc0 = bench::CurrentAllocCounts();
  for (auto _ : state) {
    size_t n = 0;
    for (const core::DrugAdrRule& rule : w.rules) {
      if (core::EvaluateDisproportionality(w.db, rule).MeetsEvansCriteria()) {
        ++n;
      }
    }
    benchmark::DoNotOptimize(signals = n);
  }
  bench::SetAllocCounters(state, alloc0);
  state.counters["evans_signals"] = static_cast<double>(signals);
}
BENCHMARK(BM_DisproportionalityScalarLoop)
    ->Args({4000, 256})
    ->Args({16000, 256})
    ->Unit(benchmark::kMillisecond);

void BM_DisproportionalityBatch(benchmark::State& state) {
  StratWorkload w = MakeWorkload(static_cast<size_t>(state.range(0)), 150,
                                 static_cast<size_t>(state.range(1)), 7);
  const size_t threads = static_cast<size_t>(state.range(2));
  size_t signals = 0;
  const auto alloc0 = bench::CurrentAllocCounts();
  for (auto _ : state) {
    std::vector<core::DisproportionalityResult> results =
        core::EvaluateDisproportionalityBatch(w.db, w.rules, threads);
    size_t n = 0;
    for (const core::DisproportionalityResult& r : results) {
      if (r.MeetsEvansCriteria()) ++n;
    }
    benchmark::DoNotOptimize(signals = n);
  }
  bench::SetAllocCounters(state, alloc0);
  state.counters["evans_signals"] = static_cast<double>(signals);
}
BENCHMARK(BM_DisproportionalityBatch)
    ->Args({4000, 256, 1})
    ->Args({16000, 256, 1})
    ->Args({16000, 256, 4})
    ->Unit(benchmark::kMillisecond);

void BM_StratifiedTablesScalar(benchmark::State& state) {
  StratWorkload w = MakeWorkload(static_cast<size_t>(state.range(0)), 150,
                                 128, 7);
  core::StratifiedAnalyzer analyzer(&w.db, &w.demographics);
  size_t cells = 0;
  const auto alloc0 = bench::CurrentAllocCounts();
  for (auto _ : state) {
    size_t n = 0;
    for (const core::DrugAdrRule& rule : w.rules) {
      n += analyzer.TablesScalar(rule).size();
    }
    benchmark::DoNotOptimize(cells = n);
  }
  bench::SetAllocCounters(state, alloc0);
  state.counters["strata"] = static_cast<double>(cells);
}
BENCHMARK(BM_StratifiedTablesScalar)
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMillisecond);

void BM_StratifiedTablesBitmap(benchmark::State& state) {
  StratWorkload w = MakeWorkload(static_cast<size_t>(state.range(0)), 150,
                                 128, 7);
  core::StratifiedAnalyzer analyzer(&w.db, &w.demographics);
  size_t cells = 0;
  const auto alloc0 = bench::CurrentAllocCounts();
  for (auto _ : state) {
    size_t n = 0;
    for (const core::DrugAdrRule& rule : w.rules) {
      n += analyzer.Tables(rule).size();
    }
    benchmark::DoNotOptimize(cells = n);
  }
  bench::SetAllocCounters(state, alloc0);
  state.counters["strata"] = static_cast<double>(cells);
}
BENCHMARK(BM_StratifiedTablesBitmap)
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMillisecond);

void BM_MantelHaenszelBatch(benchmark::State& state) {
  StratWorkload w = MakeWorkload(8000, 150, 128, 7);
  core::StratifiedAnalyzer analyzer(&w.db, &w.demographics);
  const size_t threads = static_cast<size_t>(state.range(0));
  double sum = 0;
  const auto alloc0 = bench::CurrentAllocCounts();
  for (auto _ : state) {
    std::vector<double> rors = analyzer.MantelHaenszelRors(w.rules, threads);
    double s = 0;
    for (double r : rors) s += r;
    benchmark::DoNotOptimize(sum = s);
  }
  bench::SetAllocCounters(state, alloc0);
}
BENCHMARK(BM_MantelHaenszelBatch)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Batch-vs-scalar identity on a small fixture: cells and derived doubles
// must match exactly (the batch derives cells from the popcount kernels,
// then runs the same measure functions — any divergence is a kernel bug).
bool RunSmoke() {
  StratWorkload w = MakeWorkload(1500, 80, 96, 13);
  bool ok = true;
  for (size_t threads : {1u, 4u}) {
    std::vector<core::DisproportionalityResult> batch =
        core::EvaluateDisproportionalityBatch(w.db, w.rules, threads);
    for (size_t i = 0; i < w.rules.size(); ++i) {
      core::DisproportionalityResult scalar =
          core::EvaluateDisproportionality(w.db, w.rules[i]);
      if (std::memcmp(&batch[i].table, &scalar.table, sizeof(scalar.table)) !=
              0 ||
          batch[i].prr != scalar.prr || batch[i].ror != scalar.ror ||
          batch[i].chi_squared != scalar.chi_squared ||
          batch[i].information_component != scalar.information_component) {
        std::fprintf(stderr, "smoke: batch lane %zu != scalar (%zu threads)\n",
                     i, threads);
        ok = false;
      }
    }
  }
  core::StratifiedAnalyzer analyzer(&w.db, &w.demographics);
  std::vector<double> pooled1 = analyzer.MantelHaenszelRors(w.rules, 1);
  for (size_t i = 0; i < w.rules.size(); ++i) {
    auto bitmap_tables = analyzer.Tables(w.rules[i]);
    auto scalar_tables = analyzer.TablesScalar(w.rules[i]);
    if (bitmap_tables.size() != scalar_tables.size()) {
      std::fprintf(stderr, "smoke: stratum count mismatch, rule %zu\n", i);
      ok = false;
      continue;
    }
    for (size_t s = 0; s < bitmap_tables.size(); ++s) {
      if (std::memcmp(&bitmap_tables[s].table, &scalar_tables[s].table,
                      sizeof(core::ContingencyTable)) != 0) {
        std::fprintf(stderr, "smoke: stratum cells mismatch, rule %zu\n", i);
        ok = false;
      }
    }
  }
  if (analyzer.MantelHaenszelRors(w.rules, 4) != pooled1) {
    std::fprintf(stderr, "smoke: MH pooling not thread-invariant\n");
    ok = false;
  }
  std::printf("smoke: %zu rules, batch==scalar %s\n", w.rules.size(),
              ok ? "OK" : "MISMATCH");
  return ok;
}

// The original stratified shape harness (DESIGN.md experiment B2).
int RunShape() {
  const double scale = bench::ScaleFromEnv();
  bench::PrintHeader(
      "Stratified analysis — crude vs Mantel-Haenszel (sex × age band)");
  bench::PreparedQuarter prepared = bench::PrepareQuarter(1, scale);
  core::MarasAnalyzer analyzer(bench::DefaultAnalyzerOptions(scale));
  auto analysis = analyzer.Analyze(prepared.pre);
  MARAS_CHECK(analysis.ok()) << analysis.status().ToString();

  core::StratifiedAnalyzer stratified(&prepared.pre.transactions,
                                      &prepared.pre.demographics);
  auto ranked = core::RankMcacs(
      analysis->mcacs, core::RankingMethod::kExclusivenessConfidence, {});

  std::printf("top-10 clusters, crude vs pooled odds ratio:\n");
  std::printf("%-58s %10s %10s %s\n", "cluster", "crude OR", "MH OR",
              "confounded?");
  for (size_t i = 0; i < std::min<size_t>(10, ranked.size()); ++i) {
    const auto& target = ranked[i].mcac.target;
    double crude = stratified.CrudeRor(target);
    double pooled = stratified.MantelHaenszelRor(target);
    auto fmt = [](double v) {
      return v >= core::kDisproportionalityCap
                 ? std::string("inf")
                 : maras::FormatDouble(v, 2);
    };
    std::printf("%-58s %10s %10s %s\n",
                core::RuleToString(target, prepared.pre.items)
                    .substr(0, 57)
                    .c_str(),
                fmt(crude).c_str(), fmt(pooled).c_str(),
                stratified.IsConfounded(target) ? "YES" : "no");
  }

  size_t confounded = 0;
  for (const auto& entry : ranked) {
    if (stratified.IsConfounded(entry.mcac.target)) ++confounded;
  }
  std::printf("\n%zu/%zu clusters shift by >20%% once stratified "
              "(demographic confounding candidates)\n",
              confounded, ranked.size());

  // Sanity claim: the generator assigns demographics independently of drug
  // exposure, so true injected signals must survive stratification —
  // their pooled OR stays elevated.
  size_t checked = 0, surviving = 0;
  for (const auto& signal : prepared.ground_truth.signals) {
    mining::Itemset drugs;
    bool ok = true;
    for (const auto& name : signal.drugs) {
      auto id = prepared.pre.items.Lookup(name);
      if (!id.ok()) {
        ok = false;
        break;
      }
      drugs.push_back(*id);
    }
    mining::Itemset adrs;
    for (const auto& name : signal.adrs) {
      auto id = prepared.pre.items.Lookup(name);
      if (id.ok()) adrs.push_back(*id);
    }
    if (!ok || adrs.empty()) continue;
    core::DrugAdrRule rule;
    rule.drugs = mining::MakeItemset(std::move(drugs));
    rule.adrs = mining::MakeItemset(std::move(adrs));
    ++checked;
    if (stratified.MantelHaenszelRor(rule) > 2.0) ++surviving;
  }
  std::printf("ground-truth signals with pooled OR > 2: %zu/%zu\n",
              surviving, checked);
  bool shape = checked > 0 && surviving == checked;
  std::printf("Shape (every true signal survives stratification): %s\n",
              shape ? "REPRODUCED" : "NOT reproduced");
  return shape ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shape") == 0) return RunShape();
  }
  maras::bench::BenchMainOptions options =
      maras::bench::ParseBenchArgs(argc, argv);
  if (options.smoke) return RunSmoke() ? 0 : 1;
  return maras::bench::RunBenchmarksToJson(std::move(options),
                                           "bench_stratified");
}
