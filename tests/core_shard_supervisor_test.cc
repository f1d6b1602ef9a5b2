#include "core/shard_supervisor.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/multi_quarter.h"
#include "faers/corruptor.h"
#include "tests/oracles/crash_harness.h"
#include "faers/generator.h"
#include "util/subprocess.h"

// This binary doubles as its own shard-worker fleet: the custom main() at
// the bottom routes any invocation carrying --shard= into RunShardWorker
// over a corpus rebuilt from --worker-seed, exactly the self-re-invocation
// contract the supervisor's worker_command relies on. Everything the worker
// path needs therefore lives in the named namespace below, reachable from
// main() outside any TEST.

namespace maras::core {
namespace shardtest {

constexpr uint64_t kCorpusSeed = 4200;

std::string g_self_path;  // set by main() before any test runs

// Small three-quarter corpus: big enough that the reference run produces
// ranked MCACs (asserted, so identity checks cannot go vacuous), small
// enough that a chaos test can afford dozens of worker attempts.
constexpr size_t kCorpusQuarters = 3;

faers::QuarterDataset MakeQuarter(uint64_t seed, int quarter) {
  faers::GeneratorConfig config;
  config.year = 2061;
  config.quarter = quarter;
  config.n_reports = 500;
  config.n_drugs = 150;
  config.n_adrs = 80;
  config.seed = seed + static_cast<uint64_t>(quarter);
  auto dataset = faers::SyntheticGenerator(config).Generate();
  if (!dataset.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 dataset.status().ToString().c_str());
    std::abort();
  }
  return *std::move(dataset);
}

std::vector<faers::QuarterDataset> MakeQuarters(uint64_t seed) {
  std::vector<faers::QuarterDataset> quarters;
  for (size_t q = 1; q <= kCorpusQuarters; ++q) {
    quarters.push_back(MakeQuarter(seed, static_cast<int>(q)));
  }
  return quarters;
}

AnalyzerOptions TestAnalyzer() {
  AnalyzerOptions analyzer;
  analyzer.mining.min_support = 5;
  analyzer.mining.num_threads = 1;
  return analyzer;
}

// Worker-side entry point: rebuild the corpus from the flags and run the
// shard. Exit codes mirror the example driver: 2 bad invocation, 1 shard
// failure, 0 success.
int RunWorkerMain(int argc, char** argv) {
  std::string shard;
  std::string dir;
  uint64_t seed = kCorpusSeed;
  ShardWorkerChaos chaos;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--shard=", 0) == 0) {
      shard = std::string(arg.substr(8));
    } else if (arg.rfind("--worker-dir=", 0) == 0) {
      dir = std::string(arg.substr(13));
    } else if (arg.rfind("--worker-seed=", 0) == 0) {
      seed = std::strtoull(std::string(arg.substr(14)).c_str(), nullptr, 10);
    } else if (arg.rfind("--chaos-exit=", 0) == 0) {
      chaos.exit_at = std::string(arg.substr(13));
    } else if (arg.rfind("--chaos-hang=", 0) == 0) {
      chaos.hang_at = std::string(arg.substr(13));
    }
  }
  auto spec = ParseShardArg(shard, kCorpusQuarters);
  if (!spec.ok() || dir.empty()) {
    std::fprintf(stderr, "bad worker invocation: %s\n",
                 spec.ok() ? "missing --worker-dir"
                           : spec.status().ToString().c_str());
    return 2;
  }
  if (!chaos.hang_at.empty()) {
    // A worker set to hang leaves its pid, so a test can check that the
    // supervisor reaped it.
    std::ofstream(dir + "/worker-" + std::to_string(spec->index) + ".pid")
        << getpid();
  }
  const faers::QuarterDataset quarter =
      MakeQuarter(seed, static_cast<int>(spec->index) + 1);
  ShardWorkerConfig config;
  config.spec = *spec;
  config.checkpoint_dir = dir;
  config.quarter = &quarter;
  config.pipeline.checkpoint_dir = dir;
  config.chaos = chaos;
  maras::Status status = RunShardWorker(config);
  if (!status.ok()) {
    std::fprintf(stderr, "worker failed: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace shardtest

namespace {

using shardtest::g_self_path;
using shardtest::kCorpusSeed;
using shardtest::MakeQuarters;
using shardtest::TestAnalyzer;
using std::chrono::milliseconds;

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/shard61_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

struct StageEncodings {
  std::string closed;
  std::string rules;
  std::string ranked;
};

StageEncodings Encode(const SurveillanceAnalysis& analysis) {
  return {EncodeItemsetResult(analysis.closed), EncodeRules(analysis.rules),
          EncodeRankedMcacs(analysis.ranked)};
}

void ExpectIdentical(const StageEncodings& got, const StageEncodings& want) {
  EXPECT_EQ(got.closed, want.closed) << "closed family diverged";
  EXPECT_EQ(got.rules, want.rules) << "rule set diverged";
  EXPECT_EQ(got.ranked, want.ranked) << "MCAC ranking diverged";
}

const std::vector<faers::QuarterDataset>& SharedQuarters() {
  static auto* quarters =
      new std::vector<faers::QuarterDataset>(MakeQuarters(kCorpusSeed));
  return *quarters;
}

// The single-process ground truth every sharded run must reproduce
// byte-for-byte, computed once per binary invocation.
struct Reference {
  bool ok = false;
  std::string error;
  StageEncodings enc;
  size_t ranked = 0;
};

const Reference& GetReference() {
  static Reference* reference = [] {
    auto* ref = new Reference;
    MultiQuarterPipeline pipeline{MultiQuarterOptions{}};
    auto analysis = pipeline.RunAnalyzed(SharedQuarters(), TestAnalyzer());
    if (!analysis.ok()) {
      ref->error = analysis.status().ToString();
      return ref;
    }
    ref->enc = Encode(*analysis);
    ref->ranked = analysis->ranked.size();
    ref->ok = true;
    return ref;
  }();
  return *reference;
}

std::vector<std::string> WorkerCommand(const std::string& dir, uint64_t seed) {
  return {CurrentExecutablePath(g_self_path), "--worker-dir=" + dir,
          "--worker-seed=" + std::to_string(seed)};
}

// Chaos runs retry often; keep the deterministic backoff schedule tight so
// the harness spends its time in workers, not in sleeps.
ShardSupervisorOptions FastOptions() {
  ShardSupervisorOptions options;
  options.backoff.base = milliseconds(5);
  options.backoff.max_delay = milliseconds(50);
  return options;
}

// A sharded run with `threads` quarter workers at a time.
maras::StatusOr<SurveillanceAnalysis> RunSharded(
    const std::string& dir, ShardSupervisorOptions options,
    ShardRunReport* report, size_t threads = 2, uint64_t seed = kCorpusSeed,
    const std::vector<faers::QuarterDataset>* quarters = nullptr,
    bool resume = false, const RunContext* context = nullptr) {
  options.worker_command = WorkerCommand(dir, seed);
  MultiQuarterOptions pipeline;
  pipeline.num_threads = threads;
  pipeline.checkpoint_dir = dir;
  pipeline.resume = resume;
  pipeline.context = context;
  ShardSupervisor supervisor(std::move(options));
  return supervisor.RunAnalyzed(quarters != nullptr ? *quarters
                                                    : SharedQuarters(),
                                pipeline, TestAnalyzer(),
                                RankingMethod::kExclusivenessConfidence,
                                report);
}

bool AnyNoteContains(const std::vector<std::string>& notes,
                     std::string_view needle) {
  for (const std::string& note : notes) {
    if (note.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Shard spec wire format.
// ---------------------------------------------------------------------------

TEST(ShardSpecTest, QuarterSpecRoundTrips) {
  ShardSpec spec;
  spec.index = 2;
  EXPECT_EQ(spec.Serialize(), "quarter:2");
  auto parsed = ParseShardArg("quarter:2", 3);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->index, 2u);
}

TEST(ShardSpecTest, MalformedSpecsAreRejected) {
  for (const char* bad : {"", "bogus", "quarter:", "quarter:x"}) {
    EXPECT_TRUE(ParseShardArg(bad, 3).status().IsInvalidArgument()) << bad;
  }
}

TEST(ShardSpecTest, IndexPastTheQuartersIsRejected) {
  EXPECT_TRUE(ParseShardArg("quarter:3", 4).ok());
  const auto past = ParseShardArg("quarter:4", 4);
  EXPECT_TRUE(past.status().IsInvalidArgument());
  EXPECT_NE(past.status().ToString().find("out of range (have 4 quarters)"),
            std::string::npos)
      << past.status().ToString();
  EXPECT_TRUE(ParseShardArg("quarter:0", 0).status().IsInvalidArgument());
}

TEST(ShardSpecTest, WorkerWithoutAQuarterIsRejected) {
  ShardWorkerConfig config;
  config.checkpoint_dir = FreshDir("no_quarter");
  EXPECT_TRUE(RunShardWorker(config).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Clean sharded runs: byte-identical to the single-process pipeline at any
// fan-out width; a used checkpoint dir is replayed only under resume.
// ---------------------------------------------------------------------------

TEST(ShardIdentityTest, TwoWorkersMatchSingleProcessBytes) {
  const Reference& ref = GetReference();
  ASSERT_TRUE(ref.ok) << ref.error;
  ASSERT_GT(ref.ranked, 0u)
      << "corpus must produce MCACs or identity checks are vacuous";
  std::string dir = FreshDir("two_workers");
  ShardRunReport report;
  auto got = RunSharded(dir, FastOptions(), &report);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectIdentical(Encode(*got), ref.enc);
  EXPECT_EQ(report.attempts, SharedQuarters().size());
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(ShardIdentityTest, FourWorkersMatchSingleProcessBytes) {
  const Reference& ref = GetReference();
  ASSERT_TRUE(ref.ok) << ref.error;
  std::string dir = FreshDir("four_workers");
  ShardRunReport report;
  auto got = RunSharded(dir, FastOptions(), &report, /*threads=*/4);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectIdentical(Encode(*got), ref.enc);
  EXPECT_EQ(report.attempts, SharedQuarters().size());
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(ShardIdentityTest, StaleCheckpointsOfAnotherSeedAreRecomputed) {
  std::string dir = FreshDir("stale");
  ShardRunReport first;
  auto run1 = RunSharded(dir, FastOptions(), &first);
  ASSERT_TRUE(run1.ok()) << run1.status().ToString();
  // The same dir again without resume, on another corpus whose quarters
  // have the same labels: the first run's quarter checkpoints validate, but
  // they are another run's, so every worker is spawned and the result is
  // this corpus's single-process bytes.
  constexpr uint64_t kOtherSeed = 4300;
  const auto quarters = MakeQuarters(kOtherSeed);
  MultiQuarterPipeline pipeline{MultiQuarterOptions{}};
  auto reference = pipeline.RunAnalyzed(quarters, TestAnalyzer());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_NE(Encode(*reference).ranked, Encode(*run1).ranked)
      << "the two corpora must differ or this check is vacuous";
  ShardRunReport second;
  auto run2 = RunSharded(dir, FastOptions(), &second, /*threads=*/2,
                         kOtherSeed, &quarters);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  EXPECT_EQ(second.attempts, quarters.size());
  EXPECT_EQ(run2->stages_resumed, 0u);
  ExpectIdentical(Encode(*run2), Encode(*reference));
}

TEST(ShardIdentityTest, ResumedSupervisorReplaysAnalysisStages) {
  const Reference& ref = GetReference();
  ASSERT_TRUE(ref.ok) << ref.error;
  std::string dir = FreshDir("resume");
  ShardRunReport first;
  auto run1 = RunSharded(dir, FastOptions(), &first);
  ASSERT_TRUE(run1.ok()) << run1.status().ToString();
  // With resume, the second run reuses the quarter checkpoints and replays
  // closed, rules and ranked from the first run's checkpoints, and counts
  // them as the single-process RunAnalyzed does.
  ShardRunReport second;
  auto run2 = RunSharded(dir, FastOptions(), &second, /*threads=*/2,
                         kCorpusSeed, nullptr, /*resume=*/true);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  EXPECT_EQ(second.attempts, 0u);
  EXPECT_EQ(run2->stages_resumed, SharedQuarters().size() + 3);
  ExpectIdentical(Encode(*run2), ref.enc);
}

TEST(ShardIdentityTest, MissingCheckpointDirIsRejected) {
  ShardSupervisorOptions options = FastOptions();
  options.worker_command = {"unused"};
  MultiQuarterOptions pipeline;  // no checkpoint_dir: no worker channel
  ShardSupervisor supervisor(std::move(options));
  auto got = supervisor.RunAnalyzed(SharedQuarters(), pipeline,
                                    TestAnalyzer());
  EXPECT_TRUE(got.status().IsInvalidArgument()) << got.status().ToString();
}

TEST(ShardIdentityTest, EmptyWorkerCommandIsRejected) {
  ShardSupervisorOptions options = FastOptions();
  MultiQuarterOptions pipeline;
  pipeline.checkpoint_dir = FreshDir("no_command");
  ShardSupervisor supervisor(std::move(options));
  auto got = supervisor.RunAnalyzed(SharedQuarters(), pipeline,
                                    TestAnalyzer());
  EXPECT_TRUE(got.status().IsInvalidArgument()) << got.status().ToString();
}

// ---------------------------------------------------------------------------
// Chaos: workers killed at every stage point, checkpoints torn mid-record —
// the run must converge to the exact single-process bytes within the retry
// budget, and an exhausted budget must degrade, not fail.
// ---------------------------------------------------------------------------

// Every worker dies at `point` on its first attempt; the retries must
// converge to the reference bytes.
void KillEveryWorkerOnceAt(const std::string& point) {
  const Reference& ref = GetReference();
  ASSERT_TRUE(ref.ok) << ref.error;
  std::string dir = FreshDir("kill_" + point);
  ShardSupervisorOptions options = FastOptions();
  options.chaos_args = [&point](const ShardSpec&, size_t attempt) {
    return attempt == 0 ? std::vector<std::string>{"--chaos-exit=" + point}
                        : std::vector<std::string>{};
  };
  ShardRunReport report;
  auto got = RunSharded(dir, options, &report);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectIdentical(Encode(*got), ref.enc);
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(ShardChaosTest, KillAtStartConvergesToIdenticalBytes) {
  KillEveryWorkerOnceAt("start");
}

TEST(ShardChaosTest, KillAtWorkConvergesToIdenticalBytes) {
  KillEveryWorkerOnceAt("work");
}

TEST(ShardChaosTest, DeathAfterPublishStillCountsAsSuccess) {
  // "publish" fires after the atomic checkpoint rename: the artifact is
  // valid, so the nonzero exit must not cost a single retry — success is
  // judged by the artifact, not the exit status.
  const Reference& ref = GetReference();
  ASSERT_TRUE(ref.ok) << ref.error;
  std::string dir = FreshDir("kill_publish");
  ShardSupervisorOptions options = FastOptions();
  options.chaos_args = [](const ShardSpec&, size_t) {
    return std::vector<std::string>{"--chaos-exit=publish"};
  };
  ShardRunReport report;
  auto got = RunSharded(dir, options, &report);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectIdentical(Encode(*got), ref.enc);
  EXPECT_EQ(report.retries, 0u)
      << "a worker killed after its atomic rename already delivered";
}

TEST(ShardChaosTest, TornCheckpointsAreRejectedAndRecomputed) {
  const Reference& ref = GetReference();
  ASSERT_TRUE(ref.ok) << ref.error;
  std::string dir = FreshDir("torn");
  ShardSupervisorOptions options = FastOptions();
  // Tear every shard's published snapshot mid-file after its first attempt,
  // in the window before the supervisor validates it.
  options.post_attempt = [&dir](const ShardSpec& spec, size_t attempt) {
    if (attempt != 0) return;
    std::string path = CheckpointPath(dir, spec.Stage());
    if (!fs::exists(path)) return;
    size_t size = static_cast<size_t>(fs::file_size(path));
    ASSERT_TRUE(faers::TruncateFileAt(path, size / 2).ok()) << path;
  };
  ShardRunReport report;
  auto got = RunSharded(dir, options, &report);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectIdentical(Encode(*got), ref.enc);
  EXPECT_GE(report.retries, SharedQuarters().size())
      << "every torn snapshot must cost at least one retry";
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(ShardChaosTest, HungWorkerIsKilledByHeartbeatTimeoutAndRetried) {
  const Reference& ref = GetReference();
  ASSERT_TRUE(ref.ok) << ref.error;
  std::string dir = FreshDir("hang");
  ShardSupervisorOptions options = FastOptions();
  options.heartbeat_timeout = milliseconds(2000);
  options.chaos_args = [](const ShardSpec& spec, size_t attempt) {
    if (attempt == 0 && spec.index == 0) {
      return std::vector<std::string>{"--chaos-hang=work"};
    }
    return std::vector<std::string>{};
  };
  ShardRunReport report;
  auto got = RunSharded(dir, options, &report);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectIdentical(Encode(*got), ref.enc);
  EXPECT_GE(report.retries, 1u);
  EXPECT_TRUE(AnyNoteContains(report.notes, "hung"))
      << "heartbeat kill should be attributed as a hang";
}

TEST(ShardChaosTest, ExhaustedRetryBudgetQuarantinesAndDegrades) {
  const Reference& ref = GetReference();
  ASSERT_TRUE(ref.ok) << ref.error;
  std::string dir = FreshDir("quarantine");
  ShardSupervisorOptions options = FastOptions();
  options.max_attempts = 2;
  // One quarter shard fails on every attempt: its budget runs out and the
  // supervisor must process that quarter in-process — a slower run, never
  // a failed or a different one.
  options.chaos_args = [](const ShardSpec& spec, size_t) {
    if (spec.index == 1) {
      return std::vector<std::string>{"--chaos-exit=work"};
    }
    return std::vector<std::string>{};
  };
  ShardRunReport report;
  auto got = RunSharded(dir, options, &report);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_TRUE(AnyNoteContains(report.notes, "running in-process"));
  EXPECT_FALSE(got->truncated);
  ExpectIdentical(Encode(*got), ref.enc);
}

TEST(ShardChaosTest, RunContextTripKillsAHungWorkerAndFailsTheRun) {
  // First error wins: a deadline that expires while a worker hangs ends the
  // run with DeadlineExceeded long before the heartbeat timeout, and the
  // hung worker is killed and reaped on the way out.
  std::string dir = FreshDir("deadline");
  ShardSupervisorOptions options = FastOptions();
  options.heartbeat_timeout = milliseconds(60000);
  options.chaos_args = [](const ShardSpec&, size_t) {
    return std::vector<std::string>{"--chaos-hang=work"};
  };
  RunContext ctx;
  ctx.deadline = Deadline::AfterMillis(1000);
  ShardRunReport report;
  const auto start = std::chrono::steady_clock::now();
  auto got = RunSharded(dir, options, &report, /*threads=*/1, kCorpusSeed,
                        nullptr, /*resume=*/false, &ctx);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(got.status().IsDeadlineExceeded()) << got.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  EXPECT_EQ(report.attempts, 1u);
  std::ifstream pid_file(dir + "/worker-0.pid");
  pid_t pid = 0;
  ASSERT_TRUE(pid_file >> pid) << "the hung worker left no pid";
  EXPECT_EQ(kill(pid, 0), -1);
  EXPECT_EQ(errno, ESRCH) << "worker " << pid << " was not reaped";
}

TEST(ShardChaosTest, ReportIsTheSameAtEveryFanOutWidth) {
  // Each quarter keeps its own accounting, merged in quarter order, so the
  // report does not depend on which worker finished first.
  const Reference& ref = GetReference();
  ASSERT_TRUE(ref.ok) << ref.error;
  std::string dir = FreshDir("report_widths");
  ShardSupervisorOptions options = FastOptions();
  options.max_attempts = 2;
  // Quarter 0's worker dies once; quarter 2's dies on every attempt and is
  // quarantined.
  options.chaos_args = [](const ShardSpec& spec, size_t attempt) {
    if (spec.index == 2 || (spec.index == 0 && attempt == 0)) {
      return std::vector<std::string>{"--chaos-exit=work"};
    }
    return std::vector<std::string>{};
  };
  ShardRunReport two;
  ShardRunReport three;
  auto run2 = RunSharded(dir, options, &two, /*threads=*/2);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  ExpectIdentical(Encode(*run2), ref.enc);
  // The same dir: the second run removes the first one's checkpoints, so
  // the notes name the same files.
  auto run3 = RunSharded(dir, options, &three, /*threads=*/3);
  ASSERT_TRUE(run3.ok()) << run3.status().ToString();
  ExpectIdentical(Encode(*run3), ref.enc);
  EXPECT_EQ(two.attempts, 5u);
  EXPECT_EQ(two.retries, 2u);
  EXPECT_EQ(two.quarantined, 1u);
  EXPECT_EQ(two.notes.size(), 3u);
  EXPECT_EQ(three.attempts, two.attempts);
  EXPECT_EQ(three.retries, two.retries);
  EXPECT_EQ(three.quarantined, two.quarantined);
  EXPECT_EQ(three.notes, two.notes);
}

// ---------------------------------------------------------------------------
// Soak: a deterministic chaos lottery over several corpora — every shard is
// killed at a point chosen by its index, quarter 0's snapshot is torn —
// and every run must still converge to its own single-process bytes.
// ---------------------------------------------------------------------------

TEST(ShardSoakTest, ChaosLotteryConvergesAcrossSeeds) {
  const char* kPoints[] = {"start", "work", "publish"};
  for (uint64_t seed : {uint64_t{91}, uint64_t{92}, uint64_t{93}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto quarters = MakeQuarters(seed);
    MultiQuarterPipeline pipeline{MultiQuarterOptions{}};
    auto reference = pipeline.RunAnalyzed(quarters, TestAnalyzer());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    std::string dir = FreshDir("soak_" + std::to_string(seed));
    ShardSupervisorOptions options = FastOptions();
    options.max_attempts = 4;
    options.chaos_args = [&kPoints](const ShardSpec& spec, size_t attempt) {
      if (attempt != 0) return std::vector<std::string>{};
      return std::vector<std::string>{std::string("--chaos-exit=") +
                                      kPoints[spec.index % 3]};
    };
    options.post_attempt = [&dir](const ShardSpec& spec, size_t attempt) {
      if (attempt != 1 || spec.index != 0) return;
      std::string path = CheckpointPath(dir, spec.Stage());
      if (!fs::exists(path)) return;
      size_t size = static_cast<size_t>(fs::file_size(path));
      ASSERT_TRUE(faers::TruncateFileAt(path, size - 1).ok()) << path;
    };
    ShardRunReport report;
    auto got = RunSharded(dir, options, &report, /*threads=*/3, seed,
                          &quarters);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectIdentical(Encode(*got), Encode(*reference));
    EXPECT_EQ(report.quarantined, 0u);
  }
}

}  // namespace
}  // namespace maras::core

int main(int argc, char** argv) {
  maras::IgnoreSigpipeProcessWide();
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--shard=", 0) == 0) {
      return maras::core::shardtest::RunWorkerMain(argc, argv);
    }
  }
  maras::core::shardtest::g_self_path = argv[0];
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
