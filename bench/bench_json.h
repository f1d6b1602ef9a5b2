#ifndef MARAS_BENCH_BENCH_JSON_H_
#define MARAS_BENCH_BENCH_JSON_H_

// Machine-readable output for the mining micro-benchmarks. Each bench binary
// runs google-benchmark as usual for display (honouring --benchmark_format
// and --benchmark_color), collects every run through the reporter below,
// and writes one JSON document (wall-clock per run, per-iteration allocation
// counters, thread counts, peak RSS) so successive PRs have a perf
// trajectory to diff — see bench/baselines/.
//
// Also home of the tiny-fixture "smoke" helpers: `--smoke` runs the miners
// on a fixed small database and fails on any result-hash disagreement, which
// ctest wires up under the `bench-smoke` label (a Release-mode guard that
// the perf-oriented code paths still produce byte-identical results).

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "mining/frequent_itemsets.h"
#include "util/delimited.h"
#include "util/json.h"

namespace maras::bench {

// One benchmark run, flattened to what the trajectory needs.
struct BenchRunRecord {
  std::string name;
  double real_time = 0.0;  // in `time_unit`
  std::string time_unit;
  int64_t iterations = 0;
  std::map<std::string, double> counters;
};

// Collects every run while the display reporter google-benchmark would
// have used itself prints it, so --benchmark_format=console|csv|json and
// --benchmark_color keep working (google-benchmark only accepts a separate
// file reporter when --benchmark_out is set, so we wrap instead of running
// two reporters).
class JsonCollector : public benchmark::BenchmarkReporter {
 public:
  // The display reporter is process-lifetime: CreateDefaultDisplayReporter
  // hands out one instance and keeps ownership.
  JsonCollector() : display_(benchmark::CreateDefaultDisplayReporter()) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& report) override {
    display_->ReportRuns(report);
    for (const Run& run : report) {
      BenchRunRecord record;
      record.name = run.benchmark_name();
      record.real_time = run.GetAdjustedRealTime();
      record.time_unit = benchmark::GetTimeUnitString(run.time_unit);
      record.iterations = run.iterations;
      for (const auto& [key, counter] : run.counters) {
        record.counters[key] = static_cast<double>(counter);
      }
      runs_.push_back(std::move(record));
    }
  }

  void Finalize() override { display_->Finalize(); }

  const std::vector<BenchRunRecord>& runs() const { return runs_; }

 private:
  benchmark::BenchmarkReporter* display_;
  std::vector<BenchRunRecord> runs_;
};

// Serializes the collected runs (sorted object keys, pretty-printed) to
// `path`. Returns false when the file cannot be written.
inline bool WriteBenchJson(const std::string& path,
                           const std::string& bench_name,
                           const std::vector<BenchRunRecord>& runs) {
  json::Value::Array run_values;
  for (const BenchRunRecord& record : runs) {
    json::Value::Object counters;
    for (const auto& [key, value] : record.counters) {
      counters[key] = json::Value(value);
    }
    json::Value::Object entry;
    entry["name"] = json::Value(record.name);
    entry["real_time"] = json::Value(record.real_time);
    entry["time_unit"] = json::Value(record.time_unit);
    entry["iterations"] = json::Value(static_cast<double>(record.iterations));
    entry["counters"] = json::Value(std::move(counters));
    run_values.push_back(json::Value(std::move(entry)));
  }
  json::Value::Object doc;
  doc["bench"] = json::Value(bench_name);
  doc["hardware_threads"] =
      json::Value(static_cast<double>(std::thread::hardware_concurrency()));
  doc["peak_rss_bytes"] = json::Value(static_cast<double>(PeakRssBytes()));
  doc["runs"] = json::Value(std::move(run_values));
  return AtomicWriteStringToFile(
             path,
             json::Serialize(json::Value(std::move(doc)), /*pretty=*/true) +
                 "\n")
      .ok();
}

// FNV-1a over the canonical (itemset, support) sequence: two mining passes
// hash equal iff their results are byte-identical in canonical order.
inline uint64_t ResultHash(const mining::FrequentItemsetResult& result) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const mining::FrequentItemset& fi : result.itemsets()) {
    mix(fi.items.size());
    for (mining::ItemId id : fi.items) mix(id);
    mix(fi.support);
  }
  return h;
}

// Shared argv plumbing: strips --smoke / --bench_json=PATH before
// google-benchmark sees them. The JSON path comes from --bench_json=PATH,
// else MARAS_BENCH_JSON; with neither, no file is written.
struct BenchMainOptions {
  bool smoke = false;
  std::string json_path;    // empty: write no JSON
  std::vector<char*> argv;  // remaining args, argv[0] first
};

inline BenchMainOptions ParseBenchArgs(int argc, char** argv) {
  BenchMainOptions options;
  if (const char* env = std::getenv("MARAS_BENCH_JSON")) {
    options.json_path = env;
  }
  const std::string json_flag = "--bench_json=";
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg.rfind(json_flag, 0) == 0) {
      options.json_path = arg.substr(json_flag.size());
    } else {
      options.argv.push_back(argv[i]);
    }
  }
  return options;
}

// Runs google-benchmark and writes the JSON trajectory file when a path
// was given. Returns the process exit code.
inline int RunBenchmarksToJson(BenchMainOptions options,
                               const std::string& bench_name) {
  int argc = static_cast<int>(options.argv.size());
  benchmark::Initialize(&argc, options.argv.data());
  if (benchmark::ReportUnrecognizedArguments(argc, options.argv.data())) {
    return 1;
  }
  JsonCollector collector;
  benchmark::RunSpecifiedBenchmarks(&collector);
  benchmark::Shutdown();
  // Status lines go to stderr: stdout carries only what the display
  // reporter printed, so --benchmark_format=csv|json output stays parseable.
  if (options.json_path.empty()) {
    std::fprintf(stderr, "no JSON written (pass --bench_json=PATH or set "
                         "MARAS_BENCH_JSON)\n");
    return 0;
  }
  if (!WriteBenchJson(options.json_path, bench_name, collector.runs())) {
    std::fprintf(stderr, "failed to write %s\n", options.json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%zu runs)\n", options.json_path.c_str(),
               collector.runs().size());
  return 0;
}

}  // namespace maras::bench

#endif  // MARAS_BENCH_BENCH_JSON_H_
