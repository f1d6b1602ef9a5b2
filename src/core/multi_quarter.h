#ifndef MARAS_CORE_MULTI_QUARTER_H_
#define MARAS_CORE_MULTI_QUARTER_H_

#include <functional>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/drug_adr_rule.h"
#include "core/ranking.h"
#include "faers/ingest.h"
#include "faers/preprocess.h"
#include "faers/validate.h"
#include "util/statusor.h"

namespace maras {
struct RunContext;
}  // namespace maras

namespace maras::core {

// ---------------------------------------------------------------------------
// Multi-quarter surveillance. FAERS publishes quarterly; a signal analyst
// watches how an interaction's evidence accumulates across extracts. Each
// preprocessed quarter has its own interned vocabulary, so pooling requires
// re-interning by name; trends are computed per quarter on the original
// databases.
// ---------------------------------------------------------------------------

// Pools several preprocessed quarters into one corpus with a fresh shared
// vocabulary. Transactions keep their original order (quarters
// concatenated); primary ids carry over so report drill-down still works.
// Fails if the same name is a drug in one quarter and an ADR in another.
maras::StatusOr<faers::PreprocessResult> MergeQuarters(
    const std::vector<const faers::PreprocessResult*>& quarters);

// Per-quarter evidence for one drug combination => ADRs association,
// resolved by *name* so it spans vocabularies.
struct QuarterlySignalTrend {
  std::string label;            // e.g. "2014Q1"
  size_t reports = 0;           // supp(drugs ∪ adrs) in that quarter
  size_t combination_reports = 0;  // supp(drugs)
  double confidence = 0.0;
};

// Tracks a (drugs, adrs) association across quarters. Names must be in the
// cleaned canonical form; a quarter where some name is absent contributes a
// zero row rather than an error (new drugs enter the market mid-year).
std::vector<QuarterlySignalTrend> TrackSignal(
    const std::vector<const faers::PreprocessResult*>& quarters,
    const std::vector<std::string>& quarter_labels,
    const std::vector<std::string>& drug_names,
    const std::vector<std::string>& adr_names);

// Simple trend verdict over the per-quarter confidences: "emerging" when
// the last quarter's confidence exceeds the first's by `margin`, "fading"
// for the reverse, "stable" otherwise; quarters with no combination
// reports are skipped.
enum class TrendVerdict { kEmerging, kStable, kFading, kInsufficient };
const char* TrendVerdictName(TrendVerdict verdict);
TrendVerdict ClassifyTrend(const std::vector<QuarterlySignalTrend>& trend,
                           double margin = 0.1);

// ---------------------------------------------------------------------------
// Fault-tolerant multi-quarter ingestion. A surveillance run spans many
// quarterly extracts of varying quality; under the quarantine policy one
// unusable quarter must degrade the run (with a recorded warning), not
// abort it. The pipeline reads each quarter under the configured
// IngestPolicy, validates it, preprocesses it, and pools the survivors
// with MergeQuarters.
// ---------------------------------------------------------------------------

// One quarterly extract on disk, in FAERS ASCII naming (DEMO14Q1.txt ...),
// for drivers that read quarters from a directory.
struct QuarterSource {
  std::string directory;
  int year = 0;
  int quarter = 0;  // 1..4

  std::string Label() const {
    return std::to_string(year) + "Q" + std::to_string(quarter);
  }
};

struct MultiQuarterOptions {
  faers::IngestOptions ingest;
  faers::PreprocessOptions preprocess;
  // Every quarter is gated on ValidateDataset + EnforceValidation under
  // these options and the ingest policy.
  faers::ValidationOptions validation;
  // Worker threads for quarter-level fan-out: each quarter's ingest +
  // validate + preprocess runs as one pool task writing its own
  // outcome slot, and the surviving quarters are merged serially in input
  // order afterwards. Recovery semantics, per-quarter quarantine accounting,
  // warning order, and the merged corpus are identical to the serial run
  // (0 and 1 both mean serial). Under kStrict the error reported is still
  // the first failing quarter in input order.
  size_t num_threads = 1;
  // Resource governance for the whole run (util/run_context.h): the quarter
  // fan-out, mining, closed-set filtering, rule generation and MCAC
  // construction all poll it at bounded intervals and stop cooperatively
  // with kCancelled / kDeadlineExceeded / kResourceExhausted. nullptr =
  // ungoverned.
  const maras::RunContext* context = nullptr;
  // When non-empty, RunAnalyzed snapshots each completed stage into this
  // directory as an atomic, checksummed checkpoint (core/checkpoint.h).
  std::string checkpoint_dir;
  // With checkpoint_dir set: replay completed stages from validated
  // snapshots instead of recomputing them. A missing or corrupt snapshot is
  // recomputed (corruption adds a note naming the rejected file); the
  // resumed result is byte-identical to an uninterrupted run.
  bool resume = false;
  // Test-only crash injection: invoked after each stage — and its
  // checkpoint write — completes. Returning false aborts the run with
  // kCancelled, leaving exactly the on-disk state a process kill at that
  // stage boundary would leave. Never fires for stages replayed from disk.
  std::function<bool(const std::string& stage)> stage_hook;
};

// Per-quarter outcome: either it contributed to the merged corpus, or it was
// skipped with the failure recorded.
struct QuarterOutcome {
  std::string label;
  bool loaded = false;
  std::string error;            // why the quarter was skipped, empty if loaded
  faers::IngestReport ingest;   // this quarter's row-level accounting
};

struct MultiQuarterRun {
  faers::PreprocessResult merged;
  std::vector<QuarterOutcome> outcomes;
  // Combined accounting across all quarters, including one warning per
  // skipped quarter — hand this to the analyzer/report layer so a degraded
  // run is visible downstream.
  faers::IngestReport ingest;
  size_t quarters_loaded = 0;
};

// The full surveillance product of a checkpointed run: the pooled corpus
// plus every analysis stage's output. Field order mirrors stage order.
struct SurveillanceAnalysis {
  MultiQuarterRun run;
  mining::FrequentItemsetResult closed;  // closed itemsets of the mine
  std::vector<DrugAdrRule> rules;        // target drug-ADR rules, in
                                         // canonical closed-itemset order
  std::vector<RankedMcac> ranked;        // MCACs under the chosen method
  RuleSpaceStats stats;
  // Mining support actually used — higher than requested when the
  // degradation ladder escalated it under a memory budget.
  size_t min_support_used = 0;
  bool truncated = false;
  // Degradation and resume/corruption notes, in the order they happened.
  std::vector<std::string> notes;
  // Stages replayed from checkpoints instead of recomputed.
  size_t stages_resumed = 0;
};

class MultiQuarterPipeline {
 public:
  explicit MultiQuarterPipeline(MultiQuarterOptions options)
      : options_(std::move(options)) {}

  // Validates, preprocesses and pools quarters already parsed into memory.
  // Under kStrict the first failing quarter fails the run (with the
  // quarter's label as context); under kQuarantine failing quarters are
  // skipped with warnings and the run fails only when *no* quarter
  // survives.
  maras::StatusOr<MultiQuarterRun> Run(
      const std::vector<faers::QuarterDataset>& quarters) const;

  // End-to-end checkpointed surveillance: ingest + merge, then mine closed
  // itemsets (with the analyzer's degradation ladder when governed),
  // generate target rules, build and rank MCACs. With checkpoint_dir set,
  // each stage — "quarter-<label>", "closed", "rules", "ranked" — is
  // snapshotted after it completes; with resume additionally set, completed
  // stages are replayed from disk. The result is byte-identical to an
  // uninterrupted run at any thread count.
  maras::StatusOr<SurveillanceAnalysis> RunAnalyzed(
      const std::vector<faers::QuarterDataset>& quarters,
      const AnalyzerOptions& analyzer,
      RankingMethod method = RankingMethod::kExclusivenessConfidence) const;

  const MultiQuarterOptions& options() const { return options_; }

  // Validation + preprocess for one readable quarter. Public so a
  // shard worker process (core/shard_supervisor.h) can run exactly this
  // code on its assigned quarter — byte-identity across execution modes
  // depends on both paths sharing one implementation.
  maras::StatusOr<faers::PreprocessResult> ProcessQuarter(
      const faers::QuarterDataset& dataset, QuarterOutcome* outcome) const;

 private:
  MultiQuarterOptions options_;
};

}  // namespace maras::core

#endif  // MARAS_CORE_MULTI_QUARTER_H_
