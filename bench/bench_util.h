#ifndef MARAS_BENCH_BENCH_UTIL_H_
#define MARAS_BENCH_BENCH_UTIL_H_

// Shared helpers for the table/figure regeneration harnesses. Every harness
// honors MARAS_SCALE (a float multiplier on report counts, default 1.0 =
// 25,000 background reports per quarter; 5.0 ≈ paper scale) and MARAS_SEED.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "core/analyzer.h"
#include "core/multi_quarter.h"
#include "faers/generator.h"
#include "faers/preprocess.h"
#include "util/logging.h"

namespace maras::bench {

// Peak resident set size of this process in bytes; 0 when the platform
// doesn't expose it. Lets harnesses report real memory high-water marks
// next to MemoryBudget's sizeof-based estimates.
inline size_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<size_t>(usage.ru_maxrss);  // bytes
#else
  return static_cast<size_t>(usage.ru_maxrss) * 1024;  // KiB
#endif
#else
  return 0;
#endif
}

inline double ScaleFromEnv() {
  const char* env = std::getenv("MARAS_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

inline uint64_t SeedFromEnv() {
  const char* env = std::getenv("MARAS_SEED");
  if (env == nullptr) return 20140101;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

inline faers::GeneratorConfig QuarterConfig(int quarter, double scale) {
  faers::GeneratorConfig config;
  config.seed = SeedFromEnv();
  config.year = 2014;
  config.quarter = quarter;
  config.n_reports = static_cast<size_t>(25000.0 * scale);
  config.n_drugs = static_cast<size_t>(2500.0 * scale) + 500;
  config.n_adrs = static_cast<size_t>(900.0 * scale) + 200;
  return config;
}

// One 2014 Q1 quarter of `reports` background reports with perfbench's
// `quarter` vocabulary scaling and seed 7: the paper-scale corpus the
// microbenches time a `quarter` batch's layers on.
inline faers::GeneratorConfig PaperQuarterConfig(size_t reports) {
  faers::GeneratorConfig config;
  config.seed = 7;
  config.year = 2014;
  config.quarter = 1;
  config.n_reports = reports;
  config.n_drugs = reports / 10 + 500;
  config.n_adrs = reports * 36 / 1000 + 200;
  return config;
}

// Generates and preprocesses one quarter; fatal on error (bench context).
struct PreparedQuarter {
  faers::QuarterDataset dataset;
  faers::GroundTruth ground_truth;
  faers::PreprocessResult pre;
};

inline PreparedQuarter PrepareQuarter(int quarter, double scale) {
  faers::SyntheticGenerator generator(QuarterConfig(quarter, scale));
  auto dataset = generator.Generate();
  MARAS_CHECK(dataset.ok()) << dataset.status().ToString();
  faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
  auto pre = preprocessor.Process(*dataset);
  MARAS_CHECK(pre.ok()) << pre.status().ToString();
  return PreparedQuarter{*std::move(dataset), generator.ground_truth(),
                         *std::move(pre)};
}

// perfbench's `year` batch in memory: four quarters of 12k background
// reports (seed 7, vocabulary scaled as perfbench scales it), pooled
// through the multi-quarter pipeline on 2 threads. Its analysis mines at
// min_support 6 with itemsets capped at 7.
inline faers::PreprocessResult YearCorpus() {
  constexpr size_t kReports = 12000;
  std::vector<faers::QuarterDataset> quarters;
  for (int q = 1; q <= 4; ++q) {
    faers::GeneratorConfig config;
    config.seed = 7;
    config.year = 2014;
    config.quarter = q;
    config.n_reports = kReports;
    config.n_drugs = kReports / 10 + 500;
    config.n_adrs = kReports * 36 / 1000 + 200;
    auto dataset = faers::SyntheticGenerator(config).Generate();
    MARAS_CHECK(dataset.ok()) << dataset.status().ToString();
    quarters.push_back(std::move(dataset).value());
  }
  core::MultiQuarterOptions pipeline_options;
  pipeline_options.num_threads = 2;
  auto run = core::MultiQuarterPipeline(pipeline_options).Run(quarters);
  MARAS_CHECK(run.ok()) << run.status().ToString();
  return std::move(run->merged);
}

inline core::AnalyzerOptions DefaultAnalyzerOptions(double scale) {
  core::AnalyzerOptions options;
  // Low support, as the paper requires for rare drug combinations
  // (Section 1.3); tracks scale so the mined family stays comparable.
  // 6 at the default 25k-report scale: low enough to keep rare true
  // combinations (~36 surviving reports each), high enough to suppress the
  // 4-of-4 coincidence pairs a high-base-rate ADR produces.
  size_t min_support = static_cast<size_t>(6.0 * scale);
  options.mining.min_support = min_support < 6 ? 6 : min_support;
  options.mining.max_itemset_size = 7;
  return options;
}

inline void PrintRule(const char* prefix, const core::DrugAdrRule& rule,
                      const mining::ItemDictionary& items, double score) {
  std::printf("%s%-70s  supp=%-4zu conf=%.3f lift=%7.2f score=%.4f\n", prefix,
              core::RuleToString(rule, items).c_str(), rule.support,
              rule.confidence, rule.lift, score);
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace maras::bench

#endif  // MARAS_BENCH_BENCH_UTIL_H_
