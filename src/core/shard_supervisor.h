#ifndef MARAS_CORE_SHARD_SUPERVISOR_H_
#define MARAS_CORE_SHARD_SUPERVISOR_H_

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.h"
#include "util/backoff.h"
#include "util/statusor.h"

namespace maras::core {

// ---------------------------------------------------------------------------
// Crash-tolerant multi-process surveillance. The supervisor partitions the
// run into shards — one per quarter (ingest + preprocess), then one per
// item-range slice of the FP-Growth fan-out — and hands each shard to a
// worker process. Workers communicate results exclusively through the
// checksummed atomic-rename checkpoints of core/checkpoint.h: a worker
// either publishes a validated snapshot or leaves nothing usable, so the
// supervisor can kill, retry, and merge without ever reading a torn file.
//
// Failure model:
//   * A worker that exits nonzero, dies on a signal, or goes silent past
//     the heartbeat timeout is killed and retried with exponential backoff
//     and deterministic jitter (util/backoff.h — the delay sequence is a
//     pure function of the shard's stage name and the policy seed).
//   * A worker that dies *after* publishing a valid checkpoint still
//     counts as success: validation inspects the artifact, not the exit.
//   * After max_attempts failed attempts a shard is quarantined: the
//     supervisor computes it in-process — mine shards at an escalated
//     min_support via the PR-3 degradation notch, tagged truncated — so an
//     exhausted retry budget degrades the run instead of failing it. The
//     shard stride does not depend on the support, so the re-mined slice
//     keeps its top-level items; the merged family is cut at the escalated
//     support, so a degraded run equals a single-process run at its
//     min_support_used.
//   * Any hard supervisor-side error (checkpoint I/O, cancellation,
//     deadline) wins immediately: every live worker is killed and the
//     first error is returned (first-error-wins, threaded through the
//     RunContext in MultiQuarterOptions).
//
// Byte-identity: quarter workers run MultiQuarterPipeline::ProcessQuarter,
// mine workers run FP-Growth restricted to their item-range slice
// (MiningOptions::shard_index/shard_count), and the supervisor merges the
// partial families under the canonical sort before running the shared
// analysis stage functions (core/analysis_stages.h). A clean sharded run
// therefore produces byte-for-byte the SurveillanceAnalysis of the
// single-process RunAnalyzed, at any worker count.
// ---------------------------------------------------------------------------

// One unit of work handed to a worker process.
struct ShardSpec {
  enum class Kind { kQuarter, kMine };

  Kind kind = Kind::kQuarter;
  // kQuarter: index into the run's quarter vector. kMine: shard index.
  size_t index = 0;
  // Total mine shards (kMine only; 1 for quarter shards).
  size_t count = 1;
  // Quarter label (kQuarter only). Filled by whoever owns the corpus; a
  // parsed spec leaves it empty and the worker derives it from its own
  // quarter vector.
  std::string label;

  // Checkpoint stage name: "quarter-<label>" or "mine-<k>-of-<n>".
  std::string Stage() const;
  // Wire form for the --shard= worker flag: "quarter:<i>" or "mine:<k>:<n>".
  std::string Serialize() const;
};

// Parses Serialize() output (the worker side of the --shard= flag).
maras::StatusOr<ShardSpec> ParseShardArg(std::string_view arg);

// Deterministic fault injection inside a worker, at the named points of its
// shard ("start" before any work, "work" after computing, "publish" after
// the checkpoint write). Drives the chaos harness; empty = no chaos.
struct ShardWorkerChaos {
  std::string exit_at;  // _exit(3) at this point
  std::string hang_at;  // silent forever-sleep at this point (no heartbeat)
};

// Everything a worker process needs to execute one shard. The host binary
// reconstructs the quarter vector and options exactly as the supervisor's
// parent did (same flags, same seeds) — workers never receive corpora over
// a pipe, only coordinates into a deterministically re-derivable input.
struct ShardWorkerConfig {
  ShardSpec spec;
  std::string checkpoint_dir;
  const std::vector<faers::QuarterDataset>* quarters = nullptr;
  MultiQuarterOptions pipeline;
  AnalyzerOptions analyzer;
  ShardWorkerChaos chaos;
};

// Worker entry point: executes the shard and publishes its checkpoint.
// Idempotent — a valid existing checkpoint for the shard is reused and the
// worker exits success without recomputing. Progress lines on stdout serve
// as the supervisor's heartbeat.
maras::Status RunShardWorker(const ShardWorkerConfig& config);

struct ShardSupervisorOptions {
  // Mine shard count and the cap on concurrently running workers.
  size_t workers = 2;
  // argv prefix for spawning a worker; the supervisor appends any chaos
  // args and then "--shard=<spec>". The prefix must carry everything the
  // worker needs to rebuild the corpus (and the checkpoint dir).
  std::vector<std::string> worker_command;
  // A worker producing no stdout bytes for this long is presumed hung,
  // killed, and retried.
  std::chrono::milliseconds heartbeat_timeout{10000};
  // Worker attempts per shard before quarantine (>= 1).
  size_t max_attempts = 3;
  // Base backoff policy; each shard derives its own deterministic jitter
  // stream by folding its stage name into the seed.
  BackoffPolicy backoff;
  // Test hook: extra worker argv for (shard, attempt) — injects the chaos
  // flags above on chosen attempts.
  std::function<std::vector<std::string>(const ShardSpec&, size_t attempt)>
      chaos_args;
  // Test hook: runs after attempt `attempt` of `shard` ended, *before* its
  // checkpoint is validated — the window where the harness tears files.
  std::function<void(const ShardSpec&, size_t attempt)> post_attempt;
};

// Supervisor-side accounting of one sharded run.
struct ShardRunReport {
  size_t shards = 0;       // shard specs executed (both phases)
  size_t attempts = 0;     // worker attempts started
  size_t retries = 0;      // attempts beyond each shard's first
  size_t quarantined = 0;  // shards that fell back to in-process execution
  std::vector<std::string> notes;
};

class ShardSupervisor {
 public:
  explicit ShardSupervisor(ShardSupervisorOptions options)
      : options_(std::move(options)) {}

  // The sharded counterpart of MultiQuarterPipeline::RunAnalyzed: phase A
  // runs one worker per quarter, phase B runs `workers` item-range mine
  // workers over the merged corpus, then the analysis tail (closed sets,
  // rules, ranked MCACs) runs in-process on the merged family. Requires
  // `pipeline.checkpoint_dir` — checkpoints are the only worker/supervisor
  // channel. Shards with valid existing checkpoints are reused, so a
  // killed supervisor run resumes where it stopped.
  maras::StatusOr<SurveillanceAnalysis> RunAnalyzed(
      const std::vector<faers::QuarterDataset>& quarters,
      const MultiQuarterOptions& pipeline, const AnalyzerOptions& analyzer,
      RankingMethod method = RankingMethod::kExclusivenessConfidence,
      ShardRunReport* report = nullptr);

  const ShardSupervisorOptions& options() const { return options_; }

 private:
  struct ShardState;

  // Runs one phase's shard set to completion (worker attempts, retries,
  // quarantine fallbacks). `validate` decodes + stores a shard's artifact;
  // `fallback` computes it in-process after the retry budget is exhausted.
  maras::Status RunPhase(
      const std::vector<ShardSpec>& specs,
      const std::function<maras::Status(const ShardSpec&)>& validate,
      const std::function<maras::Status(const ShardSpec&)>& fallback,
      const RunContext& ctx, ShardRunReport* report);

  ShardSupervisorOptions options_;
};

}  // namespace maras::core

#endif  // MARAS_CORE_SHARD_SUPERVISOR_H_
