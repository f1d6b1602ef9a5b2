#include "core/shard_supervisor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
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
std::vector<faers::QuarterDataset> MakeQuarters(uint64_t seed) {
  std::vector<faers::QuarterDataset> quarters;
  for (int q = 1; q <= 3; ++q) {
    faers::GeneratorConfig config;
    config.year = 2061;
    config.quarter = q;
    config.n_reports = 500;
    config.n_drugs = 150;
    config.n_adrs = 80;
    config.seed = seed + static_cast<uint64_t>(q);
    auto dataset = faers::SyntheticGenerator(config).Generate();
    if (!dataset.ok()) {
      std::fprintf(stderr, "corpus generation failed: %s\n",
                   dataset.status().ToString().c_str());
      std::abort();
    }
    quarters.push_back(*std::move(dataset));
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
  auto spec = ParseShardArg(shard);
  if (!spec.ok() || dir.empty()) {
    std::fprintf(stderr, "bad worker invocation: %s\n",
                 spec.ok() ? "missing --worker-dir"
                           : spec.status().ToString().c_str());
    return 2;
  }
  std::vector<faers::QuarterDataset> quarters = MakeQuarters(seed);
  ShardWorkerConfig config;
  config.spec = *spec;
  config.checkpoint_dir = dir;
  config.quarters = &quarters;
  config.pipeline.checkpoint_dir = dir;
  config.analyzer = TestAnalyzer();
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
ShardSupervisorOptions FastOptions(size_t workers) {
  ShardSupervisorOptions options;
  options.workers = workers;
  options.backoff.base = milliseconds(5);
  options.backoff.max_delay = milliseconds(50);
  return options;
}

maras::StatusOr<SurveillanceAnalysis> RunSharded(
    const std::string& dir, ShardSupervisorOptions options,
    ShardRunReport* report, uint64_t seed = kCorpusSeed,
    const std::vector<faers::QuarterDataset>* quarters = nullptr) {
  options.worker_command = WorkerCommand(dir, seed);
  MultiQuarterOptions pipeline;
  pipeline.checkpoint_dir = dir;
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
  spec.kind = ShardSpec::Kind::kQuarter;
  spec.index = 2;
  EXPECT_EQ(spec.Serialize(), "quarter:2");
  auto parsed = ParseShardArg("quarter:2");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, ShardSpec::Kind::kQuarter);
  EXPECT_EQ(parsed->index, 2u);
}

TEST(ShardSpecTest, MineSpecRoundTripsWithStageName) {
  ShardSpec spec;
  spec.kind = ShardSpec::Kind::kMine;
  spec.index = 1;
  spec.count = 4;
  EXPECT_EQ(spec.Serialize(), "mine:1:4");
  EXPECT_EQ(spec.Stage(), "mine-1-of-4");
  auto parsed = ParseShardArg("mine:1:4");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, ShardSpec::Kind::kMine);
  EXPECT_EQ(parsed->index, 1u);
  EXPECT_EQ(parsed->count, 4u);
}

TEST(ShardSpecTest, MalformedSpecsAreRejected) {
  for (const char* bad : {"", "bogus", "quarter:", "quarter:x", "mine:3",
                          "mine:4:2", "mine:0:0", "mine:1:x"}) {
    EXPECT_TRUE(ParseShardArg(bad).status().IsInvalidArgument()) << bad;
  }
}

// ---------------------------------------------------------------------------
// Clean sharded runs: byte-identical to the single-process pipeline at any
// worker count, and idempotent across supervisor restarts.
// ---------------------------------------------------------------------------

TEST(ShardIdentityTest, TwoWorkersMatchSingleProcessBytes) {
  const Reference& ref = GetReference();
  ASSERT_TRUE(ref.ok) << ref.error;
  ASSERT_GT(ref.ranked, 0u)
      << "corpus must produce MCACs or identity checks are vacuous";
  std::string dir = FreshDir("two_workers");
  ShardRunReport report;
  auto got = RunSharded(dir, FastOptions(2), &report);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectIdentical(Encode(*got), ref.enc);
  EXPECT_EQ(report.shards, SharedQuarters().size() + 2);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(ShardIdentityTest, FourWorkersMatchSingleProcessBytes) {
  const Reference& ref = GetReference();
  ASSERT_TRUE(ref.ok) << ref.error;
  std::string dir = FreshDir("four_workers");
  ShardRunReport report;
  auto got = RunSharded(dir, FastOptions(4), &report);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectIdentical(Encode(*got), ref.enc);
  EXPECT_EQ(report.shards, SharedQuarters().size() + 4);
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(ShardIdentityTest, RestartedSupervisorReusesEveryCheckpoint) {
  const Reference& ref = GetReference();
  ASSERT_TRUE(ref.ok) << ref.error;
  std::string dir = FreshDir("restart");
  ShardRunReport first;
  auto run1 = RunSharded(dir, FastOptions(2), &first);
  ASSERT_TRUE(run1.ok()) << run1.status().ToString();
  ASSERT_GT(first.attempts, 0u);
  // Same dir again: every shard's artifact already validates, so the second
  // supervisor run must not spawn a single worker.
  ShardRunReport second;
  auto run2 = RunSharded(dir, FastOptions(2), &second);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  ExpectIdentical(Encode(*run2), ref.enc);
  EXPECT_EQ(second.attempts, 0u);
  EXPECT_TRUE(AnyNoteContains(second.notes, "reused existing checkpoint"));
}

TEST(ShardIdentityTest, MissingCheckpointDirIsRejected) {
  ShardSupervisorOptions options = FastOptions(2);
  options.worker_command = {"unused"};
  MultiQuarterOptions pipeline;  // no checkpoint_dir: no worker channel
  ShardSupervisor supervisor(std::move(options));
  auto got = supervisor.RunAnalyzed(SharedQuarters(), pipeline,
                                    TestAnalyzer());
  EXPECT_TRUE(got.status().IsInvalidArgument()) << got.status().ToString();
}

TEST(ShardIdentityTest, EmptyWorkerCommandIsRejected) {
  ShardSupervisorOptions options = FastOptions(2);
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
  ShardSupervisorOptions options = FastOptions(2);
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
  ShardSupervisorOptions options = FastOptions(2);
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
  ShardSupervisorOptions options = FastOptions(2);
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
  EXPECT_GE(report.retries, SharedQuarters().size() + 2)
      << "every torn snapshot must cost at least one retry";
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(ShardChaosTest, HungWorkerIsKilledByHeartbeatTimeoutAndRetried) {
  const Reference& ref = GetReference();
  ASSERT_TRUE(ref.ok) << ref.error;
  std::string dir = FreshDir("hang");
  ShardSupervisorOptions options = FastOptions(2);
  options.heartbeat_timeout = milliseconds(2000);
  options.chaos_args = [](const ShardSpec& spec, size_t attempt) {
    if (attempt == 0 && spec.kind == ShardSpec::Kind::kMine &&
        spec.index == 0) {
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
  ShardSupervisorOptions options = FastOptions(2);
  options.max_attempts = 2;
  // One mine shard fails on every attempt: its budget runs out and the
  // supervisor must fall back in-process at an escalated support — a
  // degraded, truncated-tagged run, never a failed one.
  options.chaos_args = [](const ShardSpec& spec, size_t) {
    if (spec.kind == ShardSpec::Kind::kMine && spec.index == 1) {
      return std::vector<std::string>{"--chaos-exit=work"};
    }
    return std::vector<std::string>{};
  };
  ShardRunReport report;
  auto got = RunSharded(dir, options, &report);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_TRUE(got->truncated)
      << "a quarantined shard must surface as a truncated result";
  EXPECT_GT(got->min_support_used, TestAnalyzer().mining.min_support);
  EXPECT_TRUE(AnyNoteContains(report.notes, "quarantined"));
  EXPECT_TRUE(AnyNoteContains(got->notes, "quarantined"));
  // The merged family is complete at the one support min_support_used, so
  // the degraded run equals a single-process run mined at that support.
  AnalyzerOptions escalated = TestAnalyzer();
  escalated.mining.min_support = got->min_support_used;
  MultiQuarterPipeline pipeline{MultiQuarterOptions{}};
  auto want = pipeline.RunAnalyzed(SharedQuarters(), escalated);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_GT(want->ranked.size(), 0u)
      << "the escalated run must keep MCACs or the comparison is vacuous";
  ExpectIdentical(Encode(*got), Encode(*want));
  EXPECT_EQ(got->stats.total_rules, want->stats.total_rules);
  EXPECT_EQ(got->stats.filtered_rules, want->stats.filtered_rules);
  EXPECT_EQ(got->stats.closed_mixed, want->stats.closed_mixed);
  EXPECT_EQ(got->stats.mcac_count, want->stats.mcac_count);
}

// ---------------------------------------------------------------------------
// Soak: a deterministic chaos lottery over several corpora — every shard is
// killed at a point chosen by its coordinates, mine:0's snapshot is torn —
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
    ShardSupervisorOptions options = FastOptions(3);
    options.max_attempts = 4;
    options.chaos_args = [&kPoints](const ShardSpec& spec, size_t attempt) {
      if (attempt != 0) return std::vector<std::string>{};
      size_t point = (spec.index +
                      (spec.kind == ShardSpec::Kind::kMine ? 1 : 0)) %
                     3;
      return std::vector<std::string>{std::string("--chaos-exit=") +
                                      kPoints[point]};
    };
    options.post_attempt = [&dir](const ShardSpec& spec, size_t attempt) {
      if (attempt != 1 || spec.Stage() != "mine-0-of-3") return;
      std::string path = CheckpointPath(dir, spec.Stage());
      if (!fs::exists(path)) return;
      size_t size = static_cast<size_t>(fs::file_size(path));
      ASSERT_TRUE(faers::TruncateFileAt(path, size - 1).ok()) << path;
    };
    ShardRunReport report;
    auto got = RunSharded(dir, options, &report, seed, &quarters);
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
