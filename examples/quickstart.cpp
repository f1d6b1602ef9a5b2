// Quickstart: the MARAS pipeline on a handful of inline adverse-event
// reports — build reports, preprocess, mine closed drug-ADR associations,
// rank contextual clusters by exclusiveness, and drill back down to the
// supporting reports.
//
//   $ ./examples/quickstart

#include <cstdio>

#include "core/analyzer.h"
#include "faers/preprocess.h"
#include "faers/report.h"

using namespace maras;

namespace {

// Adds one report; its raw names go into the quarter's name arena.
void AddReport(faers::QuarterDataset* quarter, uint64_t case_id,
               const std::vector<std::string>& drugs,
               const std::vector<std::string>& reactions) {
  faers::Report report;
  report.case_id = case_id;
  report.type = faers::ReportType::kExpedited;
  report.drugs = quarter->names.InternAll(drugs);
  report.reactions = quarter->names.InternAll(reactions);
  quarter->reports.push_back(std::move(report));
}

}  // namespace

int main() {
  // 1. A small quarter of reports. Aspirin+warfarin cases bleed; each drug
  // alone is mostly reported with unrelated events — the signature of a
  // drug-drug interaction. Note the dirty names: the preprocessor fixes
  // "WARFRIN" (typo), "COUMADIN" (brand) and "ASPIRIN 100MG" (dose).
  faers::QuarterDataset quarter;
  quarter.year = 2014;
  quarter.quarter = 1;
  uint64_t id = 1;
  for (int i = 0; i < 6; ++i) {
    AddReport(&quarter, id++, {"ASPIRIN 100MG", "WARFRIN"}, {"HAEMORRHAGE"});
  }
  for (int i = 0; i < 10; ++i) {
    AddReport(&quarter, id++, {"ASPIRIN"}, {"NAUSEA"});
    AddReport(&quarter, id++, {"COUMADIN"}, {"DIZZINESS"});
  }
  // A decoy: two antacids taken together are reported with osteoporosis,
  // but so is each antacid alone — not an interaction.
  for (int i = 0; i < 6; ++i) {
    AddReport(&quarter, id++, {"ZANTAC", "TUMS"}, {"OSTEOPOROSIS"});
    AddReport(&quarter, id++, {"ZANTAC"}, {"OSTEOPOROSIS"});
    AddReport(&quarter, id++, {"TUMS"}, {"OSTEOPOROSIS"});
  }

  // 2. Preprocess: clean names, merge each case into one transaction.
  faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
  auto pre = preprocessor.Process(quarter);
  if (!pre.ok()) {
    std::fprintf(stderr, "preprocess failed: %s\n",
                 pre.status().ToString().c_str());
    return 1;
  }
  std::printf("reports kept: %zu (fixed %zu misspellings, %zu aliases)\n",
              pre->stats.reports_kept, pre->stats.fuzzy_corrections,
              pre->stats.alias_resolutions);

  // 3. Mine closed multi-drug associations and build contextual clusters.
  core::AnalyzerOptions options;
  options.mining.min_support = 3;
  core::MarasAnalyzer analyzer(options);
  auto analysis = analyzer.Analyze(*pre);
  if (!analysis.ok()) {
    std::fprintf(stderr, "analysis failed: %s\n",
                 analysis.status().ToString().c_str());
    return 1;
  }
  std::printf("rule space: %llu total -> %llu drug=>ADR -> %llu MCACs\n",
              static_cast<unsigned long long>(analysis->stats.total_rules),
              static_cast<unsigned long long>(analysis->stats.filtered_rules),
              static_cast<unsigned long long>(analysis->stats.mcac_count));

  // 4. Rank by exclusiveness: the aspirin+warfarin interaction must beat
  // the antacid decoy even though the decoy's raw confidence is perfect.
  auto ranked = core::RankMcacs(analysis->mcacs,
                                core::RankingMethod::kExclusivenessConfidence,
                                core::ExclusivenessOptions{});
  std::printf("\nranked drug-drug interaction signals:\n");
  for (size_t i = 0; i < ranked.size(); ++i) {
    const auto& entry = ranked[i];
    std::printf("  %zu. %-50s  conf=%.2f  exclusiveness=%.3f\n", i + 1,
                core::RuleToString(entry.mcac.target, pre->items).c_str(),
                entry.mcac.target.confidence, entry.score);
    for (const auto& level : entry.mcac.levels) {
      for (const auto& context : level) {
        std::printf("       context: %-43s  conf=%.2f\n",
                    core::RuleToString(context, pre->items).c_str(),
                    context.confidence);
      }
    }
  }

  // 5. Drill down: which raw reports support the top signal?
  if (!ranked.empty()) {
    auto reports = core::SupportingReports(pre->transactions,
                                           pre->primary_ids,
                                           ranked.front().mcac.target);
    std::printf("\ntop signal is supported by %zu reports (primary ids:",
                reports.size());
    for (uint64_t pid : reports) std::printf(" %llu",
                                             static_cast<unsigned long long>(pid));
    std::printf(")\n");
  }
  return 0;
}
