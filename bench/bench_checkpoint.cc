// Checkpoint micro-benchmarks: codec encode/decode throughput for itemset
// families, atomic write+fsync+rename publish cost, and read+verify cost —
// the per-stage overhead of a checkpointed run. `--bench_json` writes the
// perf trajectory (bench/baselines/BENCH_checkpoint.json); `--smoke` runs
// the Release-mode result-hash gate: codecs must round-trip bit-exactly
// through the framed file format.

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "core/checkpoint.h"
#include "mining/fpgrowth.h"
#include "util/random.h"

namespace {

using namespace maras;
using mining::ItemId;
using mining::Itemset;
using mining::TransactionDatabase;

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

// A frequent-itemset family of roughly `n` itemsets, mined (not fabricated)
// so the codec sees realistic shape and support distributions.
mining::FrequentItemsetResult MakeFamily(size_t transactions) {
  TransactionDatabase db = MakeDb(transactions, 80, 4.0, 29);
  mining::MiningOptions options;
  options.min_support = 3;
  options.max_itemset_size = 5;
  auto mined = mining::FpGrowth(options).Mine(db);
  MARAS_CHECK(mined.ok()) << mined.status().ToString();
  return *std::move(mined);
}

std::string ScratchDir() {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "maras_bench_ckpt").string();
  std::filesystem::create_directories(dir);
  return dir;
}

void BM_EncodeItemsetResult(benchmark::State& state) {
  mining::FrequentItemsetResult family =
      MakeFamily(static_cast<size_t>(state.range(0)));
  std::string encoded;
  for (auto _ : state) {
    encoded = core::EncodeItemsetResult(family);
    benchmark::DoNotOptimize(encoded);
  }
  state.counters["itemsets"] =
      static_cast<double>(family.itemsets().size());
  state.counters["bytes"] = static_cast<double>(encoded.size());
}
BENCHMARK(BM_EncodeItemsetResult)->Arg(500)->Arg(2000)->Unit(
    benchmark::kMillisecond);

void BM_DecodeItemsetResult(benchmark::State& state) {
  const std::string encoded = core::EncodeItemsetResult(
      MakeFamily(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    auto decoded = core::DecodeItemsetResult(encoded);
    MARAS_CHECK(decoded.ok());
    benchmark::DoNotOptimize(decoded);
  }
  state.counters["bytes"] = static_cast<double>(encoded.size());
}
BENCHMARK(BM_DecodeItemsetResult)->Arg(500)->Arg(2000)->Unit(
    benchmark::kMillisecond);

void BM_WriteCheckpoint(benchmark::State& state) {
  const std::string dir = ScratchDir();
  const std::string payload = core::EncodeItemsetResult(
      MakeFamily(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    Status status = core::WriteCheckpoint(dir, "bench-write", payload);
    MARAS_CHECK(status.ok()) << status.ToString();
  }
  state.counters["bytes"] = static_cast<double>(payload.size());
}
BENCHMARK(BM_WriteCheckpoint)->Arg(500)->Arg(2000)->Unit(
    benchmark::kMillisecond);

void BM_ReadCheckpointVerify(benchmark::State& state) {
  const std::string dir = ScratchDir();
  const std::string payload = core::EncodeItemsetResult(
      MakeFamily(static_cast<size_t>(state.range(0))));
  MARAS_CHECK(core::WriteCheckpoint(dir, "bench-read", payload).ok());
  for (auto _ : state) {
    auto read = core::ReadCheckpoint(dir, "bench-read");
    MARAS_CHECK(read.ok()) << read.status().ToString();
    benchmark::DoNotOptimize(read);
  }
  state.counters["bytes"] = static_cast<double>(payload.size());
}
BENCHMARK(BM_ReadCheckpointVerify)->Arg(500)->Arg(2000)->Unit(
    benchmark::kMillisecond);

// Release-mode correctness gate (the bench-smoke ctest label): family ->
// encode -> file -> read+verify -> decode -> re-encode must reproduce the
// exact bytes.
bool RunSmoke() {
  mining::FrequentItemsetResult family = MakeFamily(400);
  const std::string encoded = core::EncodeItemsetResult(family);
  const std::string dir = ScratchDir();
  MARAS_CHECK(core::WriteCheckpoint(dir, "smoke", encoded).ok());
  auto read = core::ReadCheckpoint(dir, "smoke");
  MARAS_CHECK(read.ok()) << read.status().ToString();
  auto decoded = core::DecodeItemsetResult(*read);
  MARAS_CHECK(decoded.ok()) << decoded.status().ToString();
  const std::string reencoded = core::EncodeItemsetResult(*decoded);
  std::printf("smoke: family       result-hash %016llx (%zu itemsets)\n",
              static_cast<unsigned long long>(bench::ResultHash(family)),
              family.itemsets().size());
  if (reencoded != encoded) {
    std::fprintf(stderr, "smoke: codec round-trip is not bit-exact\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  maras::bench::BenchMainOptions options =
      maras::bench::ParseBenchArgs(argc, argv);
  if (options.smoke) return RunSmoke() ? 0 : 1;
  return maras::bench::RunBenchmarksToJson(std::move(options),
                                           "bench_checkpoint");
}
