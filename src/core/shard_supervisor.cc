#include "core/shard_supervisor.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
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
// supervisor's poll() loop sees bytes (the pipe is the liveness signal).
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
  // Idempotent reuse: a valid snapshot from an earlier attempt (possibly by
  // a worker that died right after publishing) is the finished product.
  if (ReadQuarterCheckpoint(config.checkpoint_dir, label).ok()) {
    WorkerSay("reused " + stage);
    return maras::Status::OK();
  }
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

// Per-shard supervision state. The event loop below is single-threaded:
// children run concurrently, but all bookkeeping happens in one poll()
// cycle, so no locks are needed and scheduling is easy to reason about.
struct ShardSupervisor::ShardState {
  ShardSpec spec;
  size_t attempts = 0;  // attempts started
  bool done = false;
  std::optional<ChildProcess> child;
  SteadyClock::time_point last_beat{};
  SteadyClock::time_point eligible{};  // earliest next spawn (backoff)
  std::string output;                  // rolling tail of worker stdout
  std::unique_ptr<Backoff> backoff;
};

maras::Status ShardSupervisor::RunShards(
    const std::vector<ShardSpec>& specs,
    const std::function<maras::Status(const ShardSpec&)>& validate,
    const std::function<maras::Status(const ShardSpec&)>& fallback,
    const RunContext& ctx, ShardRunReport* report) {
  report->shards += specs.size();
  std::vector<ShardState> states(specs.size());
  size_t pending = 0;
  const SteadyClock::time_point start = SteadyClock::now();
  for (size_t i = 0; i < specs.size(); ++i) {
    ShardState& state = states[i];
    state.spec = specs[i];
    state.eligible = start;
    // Each shard's jitter stream is a pure function of (policy seed, stage
    // name): reproducible per run, desynchronized across shards.
    BackoffPolicy policy = options_.backoff;
    policy.seed ^= Fnv1a64(state.spec.Stage());
    state.backoff = std::make_unique<Backoff>(policy);
    // Resume: a shard whose artifact already validates never spawns.
    if (validate(state.spec).ok()) {
      state.done = true;
      ++report->reused;
      report->notes.push_back("shard " + state.spec.Stage() +
                              ": reused existing checkpoint");
    } else {
      ++pending;
    }
  }

  // Ends one attempt: runs the harness hook, validates the artifact, and
  // either completes the shard, schedules a retry, or quarantines it.
  auto finish_attempt = [&](ShardState& state,
                            const std::string& how) -> maras::Status {
    if (options_.post_attempt) {
      options_.post_attempt(state.spec, state.attempts - 1);
    }
    maras::Status valid = validate(state.spec);
    if (valid.ok()) {
      // Success is judged by the artifact alone — a worker killed after
      // its atomic rename still delivered.
      state.done = true;
      --pending;
      return maras::Status::OK();
    }
    if (state.attempts >= options_.max_attempts) {
      ++report->quarantined;
      report->notes.push_back(
          "shard " + state.spec.Stage() + ": quarantined after " +
          std::to_string(state.attempts) + " attempts (last worker: " + how +
          "; checkpoint: " + valid.ToString() + "); running in-process");
      MARAS_RETURN_IF_ERROR(fallback(state.spec));
      state.done = true;
      --pending;
      return maras::Status::OK();
    }
    ++report->retries;
    const std::chrono::milliseconds delay =
        state.backoff->Delay(state.attempts - 1);
    state.eligible = SteadyClock::now() + delay;
    report->notes.push_back("shard " + state.spec.Stage() + ": attempt " +
                            std::to_string(state.attempts) + " failed (" +
                            how + "); retrying in " +
                            std::to_string(delay.count()) + "ms");
    return maras::Status::OK();
  };

  size_t running = 0;
  while (pending > 0) {
    // First-error-wins: a governance trip kills every live worker (the
    // ChildProcess destructors SIGKILL + reap on unwind) and returns.
    maras::Status governed = ctx.Check();
    if (!governed.ok()) {
      return maras::WithContext(governed, "shard supervisor");
    }
    // Spawn every eligible shard up to the concurrency cap.
    const SteadyClock::time_point now = SteadyClock::now();
    for (ShardState& state : states) {
      if (state.done || state.child.has_value() ||
          running >= options_.workers || now < state.eligible) {
        continue;
      }
      std::vector<std::string> argv = options_.worker_command;
      if (options_.chaos_args) {
        std::vector<std::string> extra =
            options_.chaos_args(state.spec, state.attempts);
        argv.insert(argv.end(), extra.begin(), extra.end());
      }
      argv.push_back("--shard=" + state.spec.Serialize());
      ++state.attempts;
      ++report->attempts;
      maras::StatusOr<ChildProcess> child = ChildProcess::Spawn(argv);
      if (!child.ok()) {
        // Spawn failure (fork/pipe exhaustion) consumes an attempt like
        // any other worker death; quarantine eventually absorbs it.
        MARAS_RETURN_IF_ERROR(finish_attempt(
            state, "spawn failed: " + child.status().ToString()));
        continue;
      }
      state.child = std::move(child).value();
      state.last_beat = SteadyClock::now();
      ++running;
    }

    // Multiplex the live workers' stdout pipes; bytes are heartbeats.
    std::vector<pollfd> fds;
    std::vector<ShardState*> fd_owner;
    for (ShardState& state : states) {
      if (state.child.has_value() && state.child->stdout_fd() >= 0) {
        fds.push_back(pollfd{state.child->stdout_fd(), POLLIN, 0});
        fd_owner.push_back(&state);
      }
    }
    if (fds.empty()) {
      // Nothing live (all waiting out their backoff): tick the clock.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    int ready = 0;
    do {
      ready = poll(fds.data(), static_cast<nfds_t>(fds.size()), 20);
    } while (ready == -1 && errno == EINTR);
    if (ready == -1) {
      return maras::Status::IOError("poll: " +
                                    std::string(std::strerror(errno)));
    }

    for (size_t i = 0; i < fds.size(); ++i) {
      ShardState& state = *fd_owner[i];
      bool ended = false;
      std::string how;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        const size_t before = state.output.size();
        maras::StatusOr<bool> open =
            DrainAvailable(fds[i].fd, &state.output);
        if (state.output.size() > before) {
          state.last_beat = SteadyClock::now();
        }
        if (state.output.size() > 8192) {
          state.output.erase(0, state.output.size() - 4096);
        }
        if (!open.ok() || !*open) {
          // EOF (or a broken pipe): the worker is finishing — reap it,
          // with a hard bound in case it lingers after closing stdout.
          maras::StatusOr<ExitStatus> reaped =
              state.child->WaitWithDeadline(Deadline::AfterMillis(5000));
          MARAS_RETURN_IF_ERROR(reaped.status());
          ended = true;
          how = reaped->Describe();
        }
      }
      if (!ended && SteadyClock::now() - state.last_beat >
                        options_.heartbeat_timeout) {
        // Silent past the heartbeat budget: presumed hung, killed.
        maras::StatusOr<ExitStatus> reaped = state.child->KillAndReap();
        MARAS_RETURN_IF_ERROR(reaped.status());
        ended = true;
        how = "hung (no heartbeat for " +
              std::to_string(options_.heartbeat_timeout.count()) + "ms)";
      }
      if (ended) {
        state.child.reset();
        --running;
        MARAS_RETURN_IF_ERROR(finish_attempt(state, how));
      }
    }
  }
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
  if (options_.workers == 0 || options_.max_attempts == 0) {
    return maras::Status::InvalidArgument(
        "workers and max_attempts must be >= 1");
  }
  const bool strict = pipeline.ingest.policy == faers::IngestPolicy::kStrict;
  const std::string& dir = pipeline.checkpoint_dir;
  const maras::RunContext ungoverned;
  const maras::RunContext& ctx =
      pipeline.context != nullptr ? *pipeline.context : ungoverned;
  ShardRunReport local_report;
  if (report == nullptr) report = &local_report;
  SurveillanceAnalysis out;

  // --- One worker per quarter ---------------------------------------------
  const size_t n = quarters.size();
  std::vector<QuarterCheckpoint> slots(n);
  std::vector<ShardSpec> quarter_specs(n);
  for (size_t i = 0; i < n; ++i) {
    quarter_specs[i] = ShardSpec{i, quarters[i].Label()};
  }
  MultiQuarterPipeline in_process(pipeline);
  auto validate_quarter = [&](const ShardSpec& spec) -> maras::Status {
    MARAS_ASSIGN_OR_RETURN(slots[spec.index],
                           ReadQuarterCheckpoint(dir, spec.label));
    return maras::Status::OK();
  };
  auto fallback_quarter = [&](const ShardSpec& spec) -> maras::Status {
    QuarterCheckpoint quarter;
    // A failed load is a recorded outcome; the reduce below applies policy.
    MARAS_IGNORE_STATUS(FillQuarterSlot(
        spec.label,
        in_process.ProcessQuarter(quarters[spec.index], &quarter.outcome),
        &quarter));
    MARAS_RETURN_IF_ERROR(WriteCheckpoint(dir, spec.Stage(),
                                          EncodeQuarterCheckpoint(quarter)));
    slots[spec.index] = std::move(quarter);
    return maras::Status::OK();
  };
  const size_t reused_before = report->reused;
  MARAS_RETURN_IF_ERROR(RunShards(quarter_specs, validate_quarter,
                                  fallback_quarter, ctx, report));
  out.stages_resumed = report->reused - reused_before;
  // Serial in-order reduce, shared with the single-process RunAnalyzed.
  MARAS_ASSIGN_OR_RETURN(out.run, ReduceQuarterSlots(slots, {}, strict));

  // --- The analysis: the governed in-process stage sequence of
  // MultiQuarterPipeline::RunAnalyzed, resuming per `pipeline`.
  MARAS_RETURN_IF_ERROR(RunAnalysisStages(
      out.run.merged.items, out.run.merged.transactions, analyzer, pipeline,
      pipeline.context, method, &out));
  return out;
}

}  // namespace maras::core
