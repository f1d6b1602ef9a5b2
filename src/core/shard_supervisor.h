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
// Crash-tolerant multi-process surveillance. The supervisor runs the one
// quarter stage, RunQuarterStage (core/analysis_stages.h), and supplies
// only its per-quarter load: each quarter's ingest + preprocess runs in its
// own worker process, one fan-out thread per running worker. Workers
// communicate results exclusively through the checksummed atomic-rename
// checkpoints of core/checkpoint.h: a worker either publishes a validated
// snapshot or leaves nothing usable, so the supervisor can kill and retry
// without ever reading a torn file.
//
// Failure model:
//   * A quarter's load first removes any "quarter-<label>" checkpoint:
//     resume (only under MultiQuarterOptions::resume) has already declined
//     it, so a stale file from another run can never validate.
//   * A worker that exits nonzero, dies on a signal, goes silent past the
//     heartbeat timeout (killed), fails to spawn, or leaves a torn or
//     missing checkpoint is a failed attempt, retried with exponential
//     backoff and deterministic jitter (util/backoff.h — the delay sequence
//     is a pure function of the quarter's stage name and the policy seed).
//   * A worker that dies *after* publishing a valid checkpoint still
//     counts as success: validation inspects the artifact, not the exit.
//   * After max_attempts failed attempts a quarter is quarantined: the
//     supervisor processes it in-process, so an exhausted retry budget
//     costs time, never the run or its bytes.
//   * A run-context trip (cancellation, deadline, memory budget in the
//     RunContext of MultiQuarterOptions) fails the run with the context's
//     status; every live worker is killed and reaped on the way out.
//
// Byte-identity: quarter workers run MultiQuarterPipeline::ProcessQuarter,
// RunQuarterStage reduces and publishes their slots, and the mine and every
// later stage run through RunAnalysisStages exactly as in
// MultiQuarterPipeline::RunAnalyzed, under the run's context and
// degradation ladder. A sharded run therefore produces byte-for-byte the
// SurveillanceAnalysis of the single-process RunAnalyzed, at any fan-out
// width.
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

// Worker entry point: processes the shard's quarter and publishes its
// checkpoint. Progress lines on stdout serve as the supervisor's heartbeat.
maras::Status RunShardWorker(const ShardWorkerConfig& config);

struct ShardSupervisorOptions {
  // argv prefix for spawning a worker; the supervisor appends any chaos
  // args and then "--shard=<spec>". The prefix must carry everything the
  // worker needs to rebuild the corpus (and the checkpoint dir).
  std::vector<std::string> worker_command;
  // A worker producing no stdout bytes for this long is presumed hung,
  // killed, and retried.
  std::chrono::milliseconds heartbeat_timeout{10000};
  // Worker attempts per quarter before quarantine (>= 1).
  size_t max_attempts = 3;
  // Base backoff policy; each quarter derives its own deterministic jitter
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

// Supervisor-side accounting of one sharded run, merged in quarter order,
// so it does not depend on which worker finished first.
struct ShardRunReport {
  size_t attempts = 0;     // worker attempts started
  size_t retries = 0;      // attempts beyond each quarter's first
  size_t quarantined = 0;  // quarters that fell back to in-process execution
  std::vector<std::string> notes;
};

class ShardSupervisor {
 public:
  explicit ShardSupervisor(ShardSupervisorOptions options)
      : options_(std::move(options)) {}

  // The sharded counterpart of MultiQuarterPipeline::RunAnalyzed: the same
  // quarter stage with worker processes as its load (at most
  // `pipeline.num_threads` running at a time), then the analysis stages
  // in-process, governed, checkpointed and resumed per `pipeline` like the
  // single-process run. Requires `pipeline.checkpoint_dir` — checkpoints
  // are the only worker/supervisor channel.
  maras::StatusOr<SurveillanceAnalysis> RunAnalyzed(
      const std::vector<faers::QuarterDataset>& quarters,
      const MultiQuarterOptions& pipeline, const AnalyzerOptions& analyzer,
      RankingMethod method = RankingMethod::kExclusivenessConfidence,
      ShardRunReport* report = nullptr);

 private:
  ShardSupervisorOptions options_;
};

}  // namespace maras::core

#endif  // MARAS_CORE_SHARD_SUPERVISOR_H_
