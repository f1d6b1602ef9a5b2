// Serving-path micro-benchmarks: queries/sec against a validated
// SignalSnapshot through the QueryEngine — top-k, name→postings lookups,
// drill-down to report ids, full signal materialization — plus the cost of
// opening (and therefore fully re-validating) a snapshot file, which is
// what every SnapshotStore::Refresh pays per candidate generation, and the
// cost of encoding the image, and the snapshot index derivation on
// perfbench's `year` targets next to the quadratic scan it replaced.
// `--bench_json` writes the perf trajectory (bench/baselines/
// BENCH_query.json); `--smoke` is the Release-mode result-hash gate: the
// snapshot's materialized answers must be byte-identical to the in-memory
// analyzer ranking they were built from, the decode→re-encode round trip
// must reproduce the image bit-for-bit, and the postings must agree with a
// brute-force scan over the ranked targets.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "core/analyzer.h"
#include "core/checkpoint.h"
#include "core/ranking.h"
#include "faers/generator.h"
#include "faers/preprocess.h"
#include "serve/query_engine.h"
#include "serve/snapshot_index.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"
#include "tests/oracles/snapshot_covers.h"
#include "util/delimited.h"
#include "util/logging.h"

namespace {

using namespace maras;

// One analyzed synthetic quarter plus its published snapshot image. Built
// once per fixture size and shared across benchmarks (static local).
struct Fixture {
  faers::PreprocessResult pre;
  std::vector<core::RankedMcac> ranked;
  core::RuleSpaceStats stats;
  std::string image;
  std::shared_ptr<const serve::SignalSnapshot> snapshot;
  std::unique_ptr<serve::QueryEngine> engine;
  std::vector<std::string> drug_names;  // every drug named by some target
};

Fixture MakeFixture(size_t reports) {
  faers::GeneratorConfig config;
  config.n_reports = reports;
  config.n_drugs = 600;
  config.n_adrs = 250;
  config.seed = 17;
  faers::SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  MARAS_CHECK(dataset.ok()) << dataset.status().ToString();
  faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
  auto pre = preprocessor.Process(*dataset);
  MARAS_CHECK(pre.ok()) << pre.status().ToString();

  core::AnalyzerOptions options;
  options.mining.min_support = 6;
  options.mining.max_itemset_size = 7;
  core::MarasAnalyzer analyzer(options);
  auto analysis = analyzer.Analyze(*pre);
  MARAS_CHECK(analysis.ok()) << analysis.status().ToString();

  Fixture fixture;
  fixture.ranked = core::RankMcacs(analysis->mcacs,
                                   core::RankingMethod::kExclusivenessLift,
                                   core::ExclusivenessOptions{});
  fixture.stats = analysis->stats;
  fixture.pre = *std::move(pre);

  serve::SnapshotInputs inputs;
  inputs.items = &fixture.pre.items;
  inputs.signals = &fixture.ranked;
  inputs.stats = fixture.stats;
  inputs.db = &fixture.pre.transactions;
  inputs.primary_ids = &fixture.pre.primary_ids;
  auto image = serve::EncodeSignalSnapshot(inputs);
  MARAS_CHECK(image.ok()) << image.status().ToString();
  fixture.image = *std::move(image);

  auto snapshot = serve::SignalSnapshot::FromBytes(fixture.image);
  MARAS_CHECK(snapshot.ok()) << snapshot.status().ToString();
  fixture.snapshot =
      std::make_shared<const serve::SignalSnapshot>(std::move(*snapshot));
  auto engine = serve::QueryEngine::Create(fixture.snapshot);
  MARAS_CHECK(engine.ok()) << engine.status().ToString();
  fixture.engine =
      std::make_unique<serve::QueryEngine>(std::move(*engine));

  for (const core::RankedMcac& entry : fixture.ranked) {
    for (auto id : entry.mcac.target.drugs) {
      fixture.drug_names.push_back(
          std::string(fixture.pre.items.Name(id)));
    }
  }
  MARAS_CHECK(!fixture.drug_names.empty());
  return fixture;
}

const Fixture& SharedFixture() {
  static const Fixture* fixture = new Fixture(MakeFixture(4000));
  return *fixture;
}

void BM_TopK(benchmark::State& state) {
  const Fixture& fixture = SharedFixture();
  const auto k = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.engine->TopK(k));
  }
  state.counters["signals"] =
      static_cast<double>(fixture.snapshot->counts().signals);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TopK)->Arg(10)->Arg(100);

void BM_SignalsForDrug(benchmark::State& state) {
  const Fixture& fixture = SharedFixture();
  size_t i = 0;
  for (auto _ : state) {
    const std::string& name =
        fixture.drug_names[i++ % fixture.drug_names.size()];
    auto signals = fixture.engine->SignalsForDrug(name);
    MARAS_CHECK(signals.ok());
    benchmark::DoNotOptimize(signals);
  }
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SignalsForDrug);

void BM_DrillDown(benchmark::State& state) {
  const Fixture& fixture = SharedFixture();
  const uint32_t n = fixture.snapshot->counts().signals;
  uint32_t i = 0;
  for (auto _ : state) {
    auto reports = fixture.engine->SupportingReportIds(i++ % n);
    MARAS_CHECK(reports.ok());
    benchmark::DoNotOptimize(reports);
  }
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DrillDown);

void BM_Materialize(benchmark::State& state) {
  const Fixture& fixture = SharedFixture();
  const uint32_t n = fixture.snapshot->counts().signals;
  uint32_t i = 0;
  for (auto _ : state) {
    auto ranked = fixture.engine->Materialize(i++ % n);
    MARAS_CHECK(ranked.ok());
    benchmark::DoNotOptimize(ranked);
  }
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Materialize);

// Full hostile-bytes validation pass over the image — the per-candidate
// cost of SnapshotStore::Refresh/fallback.
void BM_ValidateImage(benchmark::State& state) {
  const Fixture& fixture = SharedFixture();
  for (auto _ : state) {
    auto snapshot = serve::SignalSnapshot::FromView(fixture.image);
    MARAS_CHECK(snapshot.ok());
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["bytes"] = static_cast<double>(fixture.image.size());
}
BENCHMARK(BM_ValidateImage)->Unit(benchmark::kMicrosecond);

// The writer's side of the same image: encoding plus the postings and
// covering-edge derivation (serve/snapshot_index.h). Report ids are
// precomputed, as on the re-encode path, so the drill-down stays out of
// the row; BM_EncodeSnapshotFromDb below includes it.
void BM_EncodeSnapshot(benchmark::State& state) {
  const Fixture& fixture = SharedFixture();
  std::vector<std::vector<uint64_t>> report_ids;
  for (const core::RankedMcac& entry : fixture.ranked) {
    report_ids.push_back(core::SupportingReports(
        fixture.pre.transactions, fixture.pre.primary_ids,
        entry.mcac.target));
  }
  serve::SnapshotInputs inputs;
  inputs.items = &fixture.pre.items;
  inputs.signals = &fixture.ranked;
  inputs.stats = fixture.stats;
  inputs.report_ids = &report_ids;
  auto first = serve::EncodeSignalSnapshot(inputs);
  MARAS_CHECK(first.ok() && *first == fixture.image)
      << "re-encoding the fixture must reproduce its image";
  for (auto _ : state) {
    auto image = serve::EncodeSignalSnapshot(inputs);
    MARAS_CHECK(image.ok());
    benchmark::DoNotOptimize(image);
  }
  state.counters["bytes"] = static_cast<double>(fixture.image.size());
}
BENCHMARK(BM_EncodeSnapshot)->Unit(benchmark::kMicrosecond);

// The publish path: report ids derived from db + primary_ids inside the
// encode (core::SupportingReportLists), as a pipeline's publish does.
void BM_EncodeSnapshotFromDb(benchmark::State& state) {
  const Fixture& fixture = SharedFixture();
  serve::SnapshotInputs inputs;
  inputs.items = &fixture.pre.items;
  inputs.signals = &fixture.ranked;
  inputs.stats = fixture.stats;
  inputs.db = &fixture.pre.transactions;
  inputs.primary_ids = &fixture.pre.primary_ids;
  for (auto _ : state) {
    auto image = serve::EncodeSignalSnapshot(inputs);
    MARAS_CHECK(image.ok());
    benchmark::DoNotOptimize(image);
  }
  state.counters["bytes"] = static_cast<double>(fixture.image.size());
}
BENCHMARK(BM_EncodeSnapshotFromDb)->Unit(benchmark::kMicrosecond);

// perfbench's `year` signals: the ranked MCACs of bench::YearCorpus
// (≈ 5.4k signals), as a `year` publish hands them to the index.
struct YearSignals {
  size_t items = 0;
  std::vector<core::RankedMcac> ranked;

  std::vector<serve::TargetIds> Targets() const {
    std::vector<serve::TargetIds> targets;
    for (const core::RankedMcac& entry : ranked) {
      targets.push_back({entry.mcac.target.drugs, entry.mcac.target.adrs});
    }
    return targets;
  }
};

YearSignals MakeYearSignals() {
  const faers::PreprocessResult corpus = bench::YearCorpus();
  core::AnalyzerOptions options;
  options.mining.min_support = 6;
  options.mining.max_itemset_size = 7;
  options.mining.num_threads = 2;
  auto analysis = core::MarasAnalyzer(options).Analyze(corpus);
  MARAS_CHECK(analysis.ok()) << analysis.status().ToString();
  return YearSignals{corpus.items.size(),
                     core::RankMcacs(analysis->mcacs,
                                     core::RankingMethod::kExclusivenessLift,
                                     options.exclusiveness)};
}

const YearSignals& SharedYearSignals() {
  static const YearSignals* year = new YearSignals(MakeYearSignals());
  return *year;
}

// The postings and navigation lists of a `year` publish: what the writer
// derives once and the reader's validation derives again.
void BM_DeriveSnapshotIndex(benchmark::State& state) {
  const YearSignals& year = SharedYearSignals();
  const std::vector<serve::TargetIds> targets = year.Targets();
  size_t edges = 0;
  for (auto _ : state) {
    serve::SnapshotIndex index =
        serve::DeriveSnapshotIndex(targets, year.items);
    edges = 0;
    for (const auto& gen : index.generalizations) edges += gen.size();
    benchmark::DoNotOptimize(index);
  }
  state.counters["targets"] = static_cast<double>(targets.size());
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_DeriveSnapshotIndex)->Unit(benchmark::kMillisecond);

// The same targets' navigation lists by the quadratic same-ADR scan
// (the test-only reference, tests/oracles/snapshot_covers.h).
void BM_DeriveSnapshotCoversScan(benchmark::State& state) {
  const std::vector<serve::TargetIds> targets = SharedYearSignals().Targets();
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::SameAdrCoversByScan(targets));
  }
  state.counters["targets"] = static_cast<double>(targets.size());
}
BENCHMARK(BM_DeriveSnapshotCoversScan)->Unit(benchmark::kMillisecond);

void BM_OpenFile(benchmark::State& state) {
  const Fixture& fixture = SharedFixture();
  const std::string path =
      (std::filesystem::temp_directory_path() / "bench_query.msnp").string();
  MARAS_CHECK(AtomicWriteStringToFile(path, fixture.image).ok());
  for (auto _ : state) {
    auto snapshot = serve::SignalSnapshot::OpenFile(path);
    MARAS_CHECK(snapshot.ok());
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["bytes"] = static_cast<double>(fixture.image.size());
}
BENCHMARK(BM_OpenFile)->Unit(benchmark::kMicrosecond);

// Release-mode byte-identity gate (the bench-smoke ctest label).
bool RunSmoke() {
  const Fixture& fixture = SharedFixture();
  bool ok = true;

  // 1) Materialized answers == the analyzer ranking, byte for byte.
  std::vector<core::RankedMcac> materialized;
  for (uint32_t i = 0; i < fixture.snapshot->counts().signals; ++i) {
    auto ranked = fixture.engine->Materialize(i);
    MARAS_CHECK(ranked.ok()) << ranked.status().ToString();
    materialized.push_back(*std::move(ranked));
  }
  const std::string from_snapshot = core::EncodeRankedMcacs(materialized);
  const std::string from_analyzer =
      core::EncodeRankedMcacs(fixture.ranked);
  std::printf("smoke: analyzer     result-hash %016llx (%zu signals)\n",
              static_cast<unsigned long long>(
                  core::Fnv1a64(from_analyzer)),
              fixture.ranked.size());
  std::printf("smoke: snapshot     result-hash %016llx\n",
              static_cast<unsigned long long>(
                  core::Fnv1a64(from_snapshot)));
  if (from_snapshot != from_analyzer) {
    std::fprintf(stderr, "smoke: snapshot answers diverge from analyzer\n");
    ok = false;
  }

  // 2) Decode -> re-encode reproduces the image bit-for-bit.
  auto reconstructed = serve::ReconstructInputs(*fixture.snapshot);
  MARAS_CHECK(reconstructed.ok()) << reconstructed.status().ToString();
  serve::SnapshotInputs inputs;
  inputs.items = &reconstructed->items;
  inputs.signals = &reconstructed->signals;
  inputs.stats = reconstructed->stats;
  inputs.report_ids = &reconstructed->report_ids;
  auto reencoded = serve::EncodeSignalSnapshot(inputs);
  MARAS_CHECK(reencoded.ok()) << reencoded.status().ToString();
  std::printf("smoke: image        result-hash %016llx (%zu bytes)\n",
              static_cast<unsigned long long>(core::Fnv1a64(fixture.image)),
              fixture.image.size());
  if (*reencoded != fixture.image) {
    std::fprintf(stderr, "smoke: decode->re-encode is not bit-exact\n");
    ok = false;
  }

  // 3) Postings agree with a brute-force scan over the ranked targets.
  uint64_t postings_hash = 1469598103934665603ULL;
  for (const std::string& name : fixture.drug_names) {
    auto got = fixture.engine->SignalsForDrug(name);
    MARAS_CHECK(got.ok());
    auto id = fixture.pre.items.Lookup(name);
    MARAS_CHECK(id.ok());
    std::vector<uint32_t> expected;
    for (size_t s = 0; s < fixture.ranked.size(); ++s) {
      if (mining::Contains(fixture.ranked[s].mcac.target.drugs, *id)) {
        expected.push_back(static_cast<uint32_t>(s));
      }
    }
    if (*got != expected) {
      std::fprintf(stderr, "smoke: postings for [%s] diverge\n",
                   name.c_str());
      ok = false;
    }
    for (uint32_t s : *got) {
      postings_hash ^= s;
      postings_hash *= 1099511628211ULL;
    }
  }
  std::printf("smoke: postings     result-hash %016llx (%zu lookups)\n",
              static_cast<unsigned long long>(postings_hash),
              fixture.drug_names.size());

  if (!ok) std::fprintf(stderr, "smoke: RESULT HASH MISMATCH\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  maras::bench::BenchMainOptions options =
      maras::bench::ParseBenchArgs(argc, argv);
  if (options.smoke) return RunSmoke() ? 0 : 1;
  return maras::bench::RunBenchmarksToJson(std::move(options),
                                           "bench_query");
}
