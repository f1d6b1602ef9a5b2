#include "core/shard_supervisor.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>

#include "core/analysis_stages.h"
#include "util/subprocess.h"

namespace maras::core {

namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr char kQuarterPrefix[] = "quarter:";

maras::StatusOr<size_t> ParseSize(std::string_view text) {
  size_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return maras::Status::InvalidArgument("bad shard number '" +
                                          std::string(text) + "'");
  }
  return value;
}

// Worker heartbeat: one line per progress point, flushed immediately so the
// supervisor's poll() sees bytes (the pipe is the liveness signal).
void WorkerSay(const std::string& line) {
  std::fputs((line + "\n").c_str(), stdout);
  std::fflush(stdout);
}

// Deterministic fault injection at a worker progress point. The exit path
// uses _exit so no destructor or atexit handler runs — exactly the state a
// SIGKILL at this instruction would leave.
void MaybeChaos(const ShardWorkerChaos& chaos, const char* point) {
  if (chaos.exit_at == point) {
    std::fflush(stdout);
    _exit(3);
  }
  if (chaos.hang_at == point) {
    // Hang silently: no heartbeat bytes, never exits. Only the
    // supervisor's heartbeat kill (or the harness) ends this.
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

// How often a waiting supervisor thread polls the run context.
constexpr std::chrono::milliseconds kTick(20);

// One worker attempt: spawns the worker, polls its one stdout pipe for
// heartbeats and gives up on it after heartbeat_timeout of silence. Returns
// how the worker ended, for the notes. A run-context trip returns the
// context's status. Either way a still-running worker is killed and reaped
// by ~ChildProcess on return.
maras::StatusOr<std::string> RunAttempt(const ShardSupervisorOptions& options,
                                        const ShardSpec& spec, size_t attempt,
                                        const RunContext& ctx) {
  std::vector<std::string> argv = options.worker_command;
  if (options.chaos_args) {
    std::vector<std::string> extra = options.chaos_args(spec, attempt);
    argv.insert(argv.end(), extra.begin(), extra.end());
  }
  argv.push_back("--shard=" + spec.Serialize());
  maras::StatusOr<ChildProcess> child = ChildProcess::Spawn(argv);
  if (!child.ok()) return "spawn failed: " + child.status().ToString();
  SteadyClock::time_point last_beat = SteadyClock::now();
  std::string output;
  for (;;) {
    MARAS_RETURN_IF_ERROR(ctx.Check());
    pollfd fd{child->stdout_fd(), POLLIN, 0};
    if (poll(&fd, 1, static_cast<int>(kTick.count())) == -1 &&
        errno != EINTR) {
      return "poll failed: " + std::string(std::strerror(errno));
    }
    // Bytes are heartbeats.
    output.clear();
    maras::StatusOr<bool> open = DrainAvailable(fd.fd, &output);
    if (!output.empty()) last_beat = SteadyClock::now();
    if (!open.ok() || !*open) {
      // EOF (or a broken pipe): the worker is finishing — reap it, with a
      // hard bound in case it lingers after closing stdout.
      maras::StatusOr<ExitStatus> reaped =
          child->WaitWithDeadline(Deadline::AfterMillis(5000));
      if (!reaped.ok()) return "waitpid failed: " + reaped.status().ToString();
      return reaped->Describe();
    }
    if (SteadyClock::now() - last_beat > options.heartbeat_timeout) {
      return "hung (no heartbeat for " +
             std::to_string(options.heartbeat_timeout.count()) + "ms)";
    }
  }
}

// The supervisor's QuarterLoad for one quarter: up to max_attempts worker
// attempts, each judged by reading back its checkpoint, then the in-process
// fallback (quarantine). Attempts, retries, quarantines and notes go to
// `report`, this quarter's own.
maras::Status LoadQuarter(const ShardSupervisorOptions& options,
                          const MultiQuarterPipeline& in_process,
                          const faers::QuarterDataset& quarter,
                          const ShardSpec& spec, const std::string& dir,
                          const RunContext& ctx, QuarterCheckpoint* slot,
                          ShardRunReport* report) {
  // Resume has already declined this quarter's checkpoint, or was not asked
  // for: a file under its name is another run's and must never validate.
  std::error_code removed;
  std::filesystem::remove(CheckpointPath(dir, spec.Stage()), removed);
  if (removed) {
    return FillQuarterSlot(
        spec.label,
        maras::Status::IOError("cannot remove stale checkpoint: " +
                               removed.message()),
        slot);
  }
  // The jitter stream is a pure function of (policy seed, stage name):
  // reproducible per run, desynchronized across quarters.
  BackoffPolicy policy = options.backoff;
  policy.seed ^= Fnv1a64(spec.Stage());
  Backoff backoff(policy);
  const std::string shard = "shard " + spec.Stage();
  for (size_t attempt = 0; attempt < options.max_attempts; ++attempt) {
    ++report->attempts;
    MARAS_ASSIGN_OR_RETURN(std::string how,
                           RunAttempt(options, spec, attempt, ctx));
    if (options.post_attempt) options.post_attempt(spec, attempt);
    // Success is judged by the artifact alone — a worker killed after its
    // atomic rename still delivered.
    maras::StatusOr<QuarterCheckpoint> read =
        ReadQuarterCheckpoint(dir, spec.label);
    if (read.ok()) {
      *slot = *std::move(read);
      return slot->outcome.loaded
                 ? maras::Status::OK()
                 : maras::Status::Corruption(slot->outcome.error);
    }
    if (attempt + 1 == options.max_attempts) {
      ++report->quarantined;
      report->notes.push_back(
          shard + ": quarantined after " + std::to_string(attempt + 1) +
          " attempts (last worker: " + how + "; checkpoint: " +
          read.status().ToString() + "); running in-process");
      break;
    }
    ++report->retries;
    const Deadline retry = Deadline::After(backoff.Delay(attempt));
    report->notes.push_back(shard + ": attempt " +
                            std::to_string(attempt + 1) + " failed (" + how +
                            "); retrying in " +
                            std::to_string(retry.configured().count()) + "ms");
    while (!retry.Expired()) {
      MARAS_RETURN_IF_ERROR(ctx.Check());
      std::this_thread::sleep_for(std::min(kTick, retry.Remaining()));
    }
  }
  return FillQuarterSlot(spec.label,
                         in_process.ProcessQuarter(quarter, &slot->outcome),
                         slot);
}

}  // namespace

std::string ShardSpec::Stage() const { return "quarter-" + label; }

std::string ShardSpec::Serialize() const {
  return kQuarterPrefix + std::to_string(index);
}

maras::StatusOr<ShardSpec> ParseShardArg(std::string_view arg,
                                         size_t quarter_count) {
  if (arg.rfind(kQuarterPrefix, 0) != 0) {
    return maras::Status::InvalidArgument("unknown shard spec '" +
                                          std::string(arg) + "'");
  }
  ShardSpec spec;
  MARAS_ASSIGN_OR_RETURN(spec.index,
                         ParseSize(arg.substr(sizeof(kQuarterPrefix) - 1)));
  if (spec.index >= quarter_count) {
    return maras::Status::InvalidArgument(
        "quarter shard index " + std::to_string(spec.index) +
        " out of range (have " + std::to_string(quarter_count) +
        " quarters)");
  }
  return spec;
}

maras::Status RunShardWorker(const ShardWorkerConfig& config) {
  if (config.quarter == nullptr) {
    return maras::Status::InvalidArgument("worker has no quarter corpus");
  }
  if (config.checkpoint_dir.empty()) {
    return maras::Status::InvalidArgument("worker needs a checkpoint dir");
  }
  const faers::QuarterDataset& dataset = *config.quarter;
  const std::string label = dataset.Label();
  const std::string stage = "quarter-" + label;
  MaybeChaos(config.chaos, "start");
  // A quarter that fails ingestion is a *recorded* outcome, not a worker
  // failure: the supervisor's reduce applies the ingest policy (strict
  // aborts, quarantine warns), mirroring the single-process run.
  QuarterCheckpoint quarter;
  MultiQuarterPipeline pipeline(config.pipeline);
  MARAS_IGNORE_STATUS(FillQuarterSlot(
      label, pipeline.ProcessQuarter(dataset, &quarter.outcome), &quarter));
  WorkerSay("processed " + stage);
  MaybeChaos(config.chaos, "work");
  MARAS_RETURN_IF_ERROR(WriteCheckpoint(config.checkpoint_dir, stage,
                                        EncodeQuarterCheckpoint(quarter)));
  MaybeChaos(config.chaos, "publish");
  WorkerSay("published " + stage);
  return maras::Status::OK();
}

maras::StatusOr<SurveillanceAnalysis> ShardSupervisor::RunAnalyzed(
    const std::vector<faers::QuarterDataset>& quarters,
    const MultiQuarterOptions& pipeline, const AnalyzerOptions& analyzer,
    RankingMethod method, ShardRunReport* report) {
  if (quarters.empty()) {
    return maras::Status::InvalidArgument("no quarters to ingest");
  }
  if (pipeline.checkpoint_dir.empty()) {
    return maras::Status::InvalidArgument(
        "shard supervisor requires checkpoint_dir (checkpoints are the "
        "worker/supervisor channel)");
  }
  if (options_.worker_command.empty()) {
    return maras::Status::InvalidArgument("no worker command configured");
  }
  if (options_.max_attempts == 0) {
    return maras::Status::InvalidArgument("max_attempts must be >= 1");
  }
  const maras::RunContext ungoverned;
  const maras::RunContext& ctx =
      pipeline.context != nullptr ? *pipeline.context : ungoverned;
  std::vector<std::string> labels;
  for (const faers::QuarterDataset& quarter : quarters) {
    labels.push_back(quarter.Label());
  }
  std::vector<ShardRunReport> per_quarter(quarters.size());
  const MultiQuarterPipeline in_process(pipeline);
  SurveillanceAnalysis out;
  const maras::Status loaded = RunQuarterStage(
      pipeline, labels,
      [&](size_t i, QuarterCheckpoint* slot) {
        return LoadQuarter(options_, in_process, quarters[i],
                           ShardSpec{i, labels[i]}, pipeline.checkpoint_dir,
                           ctx, slot, &per_quarter[i]);
      },
      pipeline, &out);
  if (report != nullptr) {
    for (const ShardRunReport& quarter : per_quarter) {
      report->attempts += quarter.attempts;
      report->retries += quarter.retries;
      report->quarantined += quarter.quarantined;
      report->notes.insert(report->notes.end(), quarter.notes.begin(),
                           quarter.notes.end());
    }
  }
  MARAS_RETURN_IF_ERROR(loaded);
  MARAS_RETURN_IF_ERROR(RunAnalysisStages(
      out.run.merged.items, out.run.merged.transactions, analyzer, pipeline,
      pipeline.context, method, &out));
  return out;
}

}  // namespace maras::core
