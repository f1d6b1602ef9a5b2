// Micro-benchmarks for the resilient ingestion layer: the cost of the
// policy-aware ASCII reader on clean data (strict vs quarantine), recovery
// from a corrupted quarter, and the corruption harness itself. Strict-mode
// parsing of clean data is the hot path — the lenient policies must not tax
// it. BM_IngestPaperQuarter times a paper-scale quarter from disk through
// cleaning, phase by phase, with heap allocations per report.
//
//   ./build/bench/bench_ingest --bench_json=bench/baselines/BENCH_ingest.json

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <optional>
#include <string>

#include "bench/alloc_counter.h"
#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "faers/ascii_format.h"
#include "faers/corruptor.h"
#include "faers/generator.h"
#include "faers/preprocess.h"
#include "util/stopwatch.h"

namespace {

using namespace maras;

faers::AsciiQuarterFiles CleanQuarter(size_t reports) {
  faers::GeneratorConfig config;
  config.seed = 20140101;
  config.n_reports = reports;
  config.n_drugs = 1000;
  config.n_adrs = 400;
  faers::SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  auto files = faers::WriteAsciiQuarter(*dataset);
  return *files;
}

faers::IngestOptions PolicyOptions(faers::IngestPolicy policy) {
  faers::IngestOptions options;
  options.policy = policy;
  options.max_bad_row_fraction = 0.5;
  return options;
}

void BM_IngestCleanStrict(benchmark::State& state) {
  faers::AsciiQuarterFiles files =
      CleanQuarter(static_cast<size_t>(state.range(0)));
  size_t reports = 0;
  for (auto _ : state) {
    auto parsed = faers::ReadAsciiQuarter(files, 2014, 1);
    benchmark::DoNotOptimize(reports = parsed->reports.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports));
}
BENCHMARK(BM_IngestCleanStrict)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_IngestCleanQuarantine(benchmark::State& state) {
  faers::AsciiQuarterFiles files =
      CleanQuarter(static_cast<size_t>(state.range(0)));
  faers::IngestOptions options =
      PolicyOptions(faers::IngestPolicy::kQuarantine);
  size_t reports = 0;
  for (auto _ : state) {
    faers::IngestReport report;
    auto parsed = faers::ReadAsciiQuarter(files, 2014, 1, options, &report);
    benchmark::DoNotOptimize(reports = parsed->reports.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports));
}
BENCHMARK(BM_IngestCleanQuarantine)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_IngestCorruptedQuarantine(benchmark::State& state) {
  faers::AsciiQuarterFiles clean =
      CleanQuarter(static_cast<size_t>(state.range(0)));
  faers::CorruptorConfig config;
  config.seed = 7;
  config.faults = faers::AllRowFaults(8);
  auto corrupted = faers::Corruptor(config).Corrupt(clean, 2014, 1);
  faers::IngestOptions options =
      PolicyOptions(faers::IngestPolicy::kQuarantine);
  size_t rejected = 0;
  for (auto _ : state) {
    faers::IngestReport report;
    auto parsed =
        faers::ReadAsciiQuarter(corrupted->files, 2014, 1, options, &report);
    benchmark::DoNotOptimize(parsed->reports.size());
    rejected = report.rows_rejected;
  }
  state.counters["rows_rejected"] = static_cast<double>(rejected);
}
BENCHMARK(BM_IngestCorruptedQuarantine)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_CorruptQuarter(benchmark::State& state) {
  faers::AsciiQuarterFiles clean = CleanQuarter(4000);
  faers::CorruptorConfig config;
  config.seed = 7;
  config.faults = faers::AllRowFaults(static_cast<size_t>(state.range(0)));
  faers::Corruptor corruptor(config);
  for (auto _ : state) {
    auto corrupted = corruptor.Corrupt(clean, 2014, 1);
    benchmark::DoNotOptimize(corrupted->faults.size());
  }
}
BENCHMARK(BM_CorruptQuarter)->Arg(4)->Arg(32)->Unit(benchmark::kMillisecond);

// One quarter of `reports` background reports with perfbench's `quarter`
// scaling (seed 7), written to a fresh directory under the system temp dir.
std::filesystem::path WritePaperQuarter(size_t reports) {
  const faers::GeneratorConfig config = bench::PaperQuarterConfig(reports);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("maras_bench_ingest_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto dataset = faers::SyntheticGenerator(config).Generate();
  if (!dataset.ok() ||
      !faers::WriteAsciiQuarterToDir(*dataset, dir.string()).ok()) {
    return {};
  }
  return dir;
}

// Read the three files and parse them, clean the quarter into a
// transaction database, then free both: the ingest and prep layers of a
// perfbench `quarter` batch. Each phase is a per-iteration counter in ms;
// allocs_per_report counts heap allocations over all three.
void BM_IngestPaperQuarter(benchmark::State& state) {
  const std::filesystem::path dir =
      WritePaperQuarter(static_cast<size_t>(state.range(0)));
  if (dir.empty()) {
    state.SkipWithError("cannot write the quarter");
    return;
  }
  const faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
  double read_ms = 0, prep_ms = 0, free_ms = 0;
  size_t reports = 0;
  const bench::AllocCounts before = bench::CurrentAllocCounts();
  for (auto _ : state) {
    Stopwatch timer;
    std::optional<faers::QuarterDataset> dataset;
    if (auto read = faers::ReadAsciiQuarterFromDir(dir.string(), 2014, 1);
        read.ok()) {
      dataset.emplace(*std::move(read));
    } else {
      state.SkipWithError("read failed");
      break;
    }
    read_ms += timer.ElapsedMillis();
    timer.Reset();
    auto prepared = preprocessor.Process(*dataset);
    if (!prepared.ok()) {
      state.SkipWithError("prep failed");
      break;
    }
    prep_ms += timer.ElapsedMillis();
    benchmark::DoNotOptimize(prepared->transactions.size());
    reports = dataset->reports.size();
    timer.Reset();
    dataset.reset();
    prepared = faers::PreprocessResult{};
    free_ms += timer.ElapsedMillis();
  }
  const bench::AllocCounts after = bench::CurrentAllocCounts();
  std::filesystem::remove_all(dir);
  const double iterations =
      static_cast<double>(state.iterations() > 0 ? state.iterations() : 1);
  state.counters["read_ms"] = read_ms / iterations;
  state.counters["prep_ms"] = prep_ms / iterations;
  state.counters["free_ms"] = free_ms / iterations;
  state.counters["reports"] = static_cast<double>(reports);
  state.counters["allocs_per_report"] =
      static_cast<double>(after.allocs - before.allocs) / iterations /
      static_cast<double>(reports > 0 ? reports : 1);
}
BENCHMARK(BM_IngestPaperQuarter)
    ->Arg(125000)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

}  // namespace

int main(int argc, char** argv) {
  return maras::bench::RunBenchmarksToJson(
      maras::bench::ParseBenchArgs(argc, argv), "bench_ingest");
}
