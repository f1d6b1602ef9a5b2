#ifndef MARAS_CORE_ANALYZER_H_
#define MARAS_CORE_ANALYZER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/drug_adr_rule.h"
#include "core/mcac.h"
#include "core/ranking.h"
#include "faers/preprocess.h"
#include "mining/frequent_itemsets.h"
#include "util/statusor.h"

namespace maras::core {

// Opt-in graceful degradation under a memory budget: when a governed mine
// trips kResourceExhausted, escalate min_support one notch and retry rather
// than failing the run. A deadline or cancellation trip is never retried —
// the time is already gone. Results produced this way are tagged truncated.
struct DegradationOptions {
  bool enabled = false;
  // Upper bound on escalation retries before the budget error is returned.
  size_t max_retries = 3;
  // One notch: min_support <- max(min_support + 1, min_support * factor).
  double support_factor = 2.0;
};

// End-to-end MARAS analysis options (mining + contextual ranking).
struct AnalyzerOptions {
  // mining.num_threads also drives the analyzer's own fan-outs (closed-set
  // filtering, per-candidate rule generation, the concept-lattice edge
  // build and per-target MCAC construction); results are byte-identical at
  // any thread count.
  mining::MiningOptions mining{.min_support = 10, .max_itemset_size = 8};
  // Minimum confidence a *target* rule must reach to form an MCAC.
  double min_confidence = 0.0;
  // Targets combining more drugs than this are skipped (context size is
  // 2^n − 2; FAERS interactions of interest involve 2–4 drugs).
  size_t max_drugs_per_rule = 5;
  ExclusivenessOptions exclusiveness;
  // Graceful degradation for governed runs (mining.context with a budget).
  DegradationOptions degradation;
};

// Rule-space statistics backing Fig. 5.1.
struct RuleSpaceStats {
  uint64_t total_rules = 0;      // traditional rules A ⇒ B, any partition
  uint64_t filtered_rules = 0;   // drug ⇒ ADR associations (one per mixed itemset)
  uint64_t closed_mixed = 0;     // ... with closed complete itemset
  uint64_t mcac_count = 0;       // closed, multi-drug targets (the MCACs)
};

struct AnalysisResult {
  RuleSpaceStats stats;
  // All MCACs (unranked). Use RankMcacs or Analyzer helpers to order them.
  std::vector<Mcac> mcacs;
  // True when the mine completed only after degradation raised min_support —
  // the result is sound for the support it reports but omits rarer patterns.
  bool truncated = false;
  // One note per degradation retry, e.g. which budget trip raised support
  // from what to what. Empty for clean runs.
  std::vector<std::string> degradation_notes;
};

// The outcome of a (possibly degraded) governed mining pass.
struct GovernedMineResult {
  mining::FrequentItemsetResult frequent;
  size_t min_support_used = 0;
  bool truncated = false;
  std::vector<std::string> notes;
};

// One degradation notch: max(min_support + 1, min_support * factor).
size_t EscalateSupport(size_t min_support, double factor);

// Mines `db` under `options`, applying the degradation ladder on
// kResourceExhausted when enabled: each retry escalates min_support one
// notch (the failed attempt has already released its budget charges, so the
// retry starts from clean accounting). Every other error — including
// deadline and cancellation — propagates unchanged.
maras::StatusOr<GovernedMineResult> MineWithDegradation(
    const mining::TransactionDatabase& db, mining::MiningOptions options,
    const DegradationOptions& degradation);

// The MARAS pipeline facade (Fig. 1.1): mine closed drug-ADR associations
// from preprocessed reports, build each multi-drug target's contextual
// cluster, and rank by the chosen interestingness method.
class MarasAnalyzer {
 public:
  explicit MarasAnalyzer(AnalyzerOptions options) : options_(options) {}

  // Runs the stage sequence (core/analysis_stages.h) on a preprocessed
  // quarter, without checkpointing, up to unranked MCACs.
  maras::StatusOr<AnalysisResult> Analyze(
      const faers::PreprocessResult& input) const;

  // Lower-level entry point when transactions were built elsewhere.
  maras::StatusOr<AnalysisResult> Analyze(
      const mining::ItemDictionary& items,
      const mining::TransactionDatabase& db) const;

  const AnalyzerOptions& options() const { return options_; }

 private:
  AnalyzerOptions options_;
};

// Primary ids of the reports supporting `rule` — the paper's drill-down from
// a pattern back to the raw reports (Section 4.1), i.e. the extent of the
// rule's concept. `primary_ids[i]` must be the id of transaction i (as
// produced by the preprocessor); a transaction past its end is dropped.
// One SupportingReportLists call with one rule.
std::vector<uint64_t> SupportingReports(
    const mining::TransactionDatabase& db,
    const std::vector<uint64_t>& primary_ids, const DrugAdrRule& rule);

// SupportingReports for every rule at once: lists[r] is the list of
// rules[r], in tid order. Per block of 8,192 transactions it builds one
// tid bitmap per distinct item the rules use (1 KiB each), ANDs each
// rule's item bitmaps into one scratch bitmap and decodes its set bits, so
// a publish costs a few word passes per signal instead of a tid-list merge.
std::vector<std::vector<uint64_t>> SupportingReportLists(
    const mining::TransactionDatabase& db,
    const std::vector<uint64_t>& primary_ids,
    std::span<const DrugAdrRule* const> rules);

}  // namespace maras::core

#endif  // MARAS_CORE_ANALYZER_H_
