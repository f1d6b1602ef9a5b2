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
// Crash-tolerant multi-process surveillance. The supervisor runs each
// quarter's ingest + preprocess in its own worker process, then reduces the
// quarters and runs the analysis in-process. Workers communicate results
// exclusively through the checksummed atomic-rename checkpoints of
// core/checkpoint.h: a worker either publishes a validated snapshot or
// leaves nothing usable, so the supervisor can kill and retry without ever
// reading a torn file.
//
// Failure model:
//   * A worker that exits nonzero, dies on a signal, or goes silent past
//     the heartbeat timeout is killed and retried with exponential backoff
//     and deterministic jitter (util/backoff.h — the delay sequence is a
//     pure function of the shard's stage name and the policy seed).
//   * A worker that dies *after* publishing a valid checkpoint still
//     counts as success: validation inspects the artifact, not the exit.
//   * After max_attempts failed attempts a shard is quarantined: the
//     supervisor processes that quarter in-process, so an exhausted retry
//     budget costs time, never the run or its bytes.
//   * Any hard supervisor-side error (checkpoint I/O, cancellation,
//     deadline) wins immediately: every live worker is killed and the
//     first error is returned (first-error-wins, threaded through the
//     RunContext in MultiQuarterOptions).
//
// Byte-identity: quarter workers run MultiQuarterPipeline::ProcessQuarter,
// the supervisor reduces their slots with ReduceQuarterSlots, and the mine
// and every later stage run through RunAnalysisStages
// (core/analysis_stages.h) exactly as in MultiQuarterPipeline::RunAnalyzed,
// under the run's context and degradation ladder. A sharded run therefore
// produces byte-for-byte the SurveillanceAnalysis of the single-process
// RunAnalyzed, at any worker count.
// ---------------------------------------------------------------------------

// One unit of work handed to a worker process: one quarter.
struct ShardSpec {
  // Index into the run's quarter vector.
  size_t index = 0;
  // Quarter label. Filled by whoever owns the corpus; a parsed spec leaves
  // it empty and the worker derives it from its quarter.
  std::string label;

  // Checkpoint stage name: "quarter-<label>".
  std::string Stage() const;
  // Wire form for the --shard= worker flag: "quarter:<i>".
  std::string Serialize() const;
};

// Parses Serialize() output (the worker side of the --shard= flag) for a
// run of `quarter_count` quarters; an index past them is InvalidArgument.
maras::StatusOr<ShardSpec> ParseShardArg(std::string_view arg,
                                         size_t quarter_count);

// Deterministic fault injection inside a worker, at the named points of its
// shard ("start" before any work, "work" after computing, "publish" after
// the checkpoint write). Drives the chaos harness; empty = no chaos.
struct ShardWorkerChaos {
  std::string exit_at;  // _exit(3) at this point
  std::string hang_at;  // silent forever-sleep at this point (no heartbeat)
};

// Everything a worker process needs to execute one shard. The host binary
// reconstructs the shard's quarter and the options exactly as the
// supervisor's parent did (same flags, same seeds) — workers never receive
// corpora over a pipe, only coordinates into a deterministically
// re-derivable input — and rebuilds that one quarter, not the whole run.
struct ShardWorkerConfig {
  ShardSpec spec;
  std::string checkpoint_dir;
  // The quarter spec.index names.
  const faers::QuarterDataset* quarter = nullptr;
  MultiQuarterOptions pipeline;
  ShardWorkerChaos chaos;
};

// Worker entry point: executes the shard and publishes its checkpoint.
// Idempotent — a valid existing checkpoint for the shard is reused and the
// worker exits success without recomputing. Progress lines on stdout serve
// as the supervisor's heartbeat.
maras::Status RunShardWorker(const ShardWorkerConfig& config);

struct ShardSupervisorOptions {
  // Cap on concurrently running quarter workers.
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
  size_t shards = 0;       // shard specs executed (one per quarter)
  size_t attempts = 0;     // worker attempts started
  size_t retries = 0;      // attempts beyond each shard's first
  size_t quarantined = 0;  // shards that fell back to in-process execution
  size_t reused = 0;       // shards whose existing checkpoint validated
                           // before any worker was spawned
  std::vector<std::string> notes;
};

class ShardSupervisor {
 public:
  explicit ShardSupervisor(ShardSupervisorOptions options)
      : options_(std::move(options)) {}

  // The sharded counterpart of MultiQuarterPipeline::RunAnalyzed: one
  // worker per quarter (at most `workers` at a time), then the reduce and
  // the analysis stages in-process, governed, checkpointed and resumed per
  // `pipeline` like the single-process run. Requires
  // `pipeline.checkpoint_dir` — checkpoints are the only worker/supervisor
  // channel. Quarters with valid existing checkpoints are always reused, so
  // a killed supervisor run resumes where it stopped; the result's
  // stages_resumed counts them, as the single-process run counts the
  // quarter checkpoints it replays.
  maras::StatusOr<SurveillanceAnalysis> RunAnalyzed(
      const std::vector<faers::QuarterDataset>& quarters,
      const MultiQuarterOptions& pipeline, const AnalyzerOptions& analyzer,
      RankingMethod method = RankingMethod::kExclusivenessConfidence,
      ShardRunReport* report = nullptr);

  const ShardSupervisorOptions& options() const { return options_; }

 private:
  struct ShardState;

  // Runs the shard set to completion (worker attempts, retries,
  // quarantine fallbacks). `validate` decodes + stores a shard's artifact;
  // `fallback` computes it in-process after the retry budget is exhausted.
  maras::Status RunShards(
      const std::vector<ShardSpec>& specs,
      const std::function<maras::Status(const ShardSpec&)>& validate,
      const std::function<maras::Status(const ShardSpec&)>& fallback,
      const RunContext& ctx, ShardRunReport* report);

  ShardSupervisorOptions options_;
};

}  // namespace maras::core

#endif  // MARAS_CORE_SHARD_SUPERVISOR_H_
