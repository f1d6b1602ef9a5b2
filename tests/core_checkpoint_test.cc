#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/multi_quarter.h"
#include "core/ranking.h"
#include "faers/corruptor.h"
#include "tests/oracles/crash_harness.h"
#include "faers/generator.h"
#include "faers/preprocess.h"

namespace maras::core {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/ckpt52_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---------------------------------------------------------------------------
// Framing: write/read, atomicity leftovers, and every rejection path.
// ---------------------------------------------------------------------------

TEST(CheckpointFramingTest, Fnv1a64KnownVectors) {
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(Fnv1a64("payload"), Fnv1a64("pbyload"));
}

TEST(CheckpointFramingTest, RoundTripsPayload) {
  std::string dir = FreshDir("roundtrip");
  std::string payload("stage bytes \0 with embedded nul", 31);
  ASSERT_TRUE(WriteCheckpoint(dir, "stage-a", payload).ok());
  auto read = ReadCheckpoint(dir, "stage-a");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
  // Atomic publish must not leave the temp file behind.
  EXPECT_FALSE(fs::exists(CheckpointPath(dir, "stage-a") + ".tmp"));
}

TEST(CheckpointFramingTest, OverwriteReplacesSnapshot) {
  std::string dir = FreshDir("overwrite");
  ASSERT_TRUE(WriteCheckpoint(dir, "stage-a", "old").ok());
  ASSERT_TRUE(WriteCheckpoint(dir, "stage-a", "new").ok());
  auto read = ReadCheckpoint(dir, "stage-a");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "new");
}

TEST(CheckpointFramingTest, MissingSnapshotIsNotFound) {
  std::string dir = FreshDir("missing");
  auto read = ReadCheckpoint(dir, "absent");
  EXPECT_TRUE(read.status().IsNotFound()) << read.status().ToString();
  EXPECT_NE(read.status().ToString().find("absent"), std::string::npos);
}

TEST(CheckpointFramingTest, TornHeaderIsCorruptionNamingFileAndStage) {
  std::string dir = FreshDir("torn_header");
  ASSERT_TRUE(WriteCheckpoint(dir, "closed", "payload").ok());
  std::string path = CheckpointPath(dir, "closed");
  ASSERT_TRUE(faers::TruncateFileAt(path, 5).ok());
  auto read = ReadCheckpoint(dir, "closed");
  ASSERT_TRUE(read.status().IsCorruption()) << read.status().ToString();
  std::string message = read.status().ToString();
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("closed"), std::string::npos) << message;
}

TEST(CheckpointFramingTest, TornPayloadIsCorruption) {
  std::string dir = FreshDir("torn_payload");
  ASSERT_TRUE(WriteCheckpoint(dir, "rules", "a longer stage payload").ok());
  std::string path = CheckpointPath(dir, "rules");
  size_t size = static_cast<size_t>(fs::file_size(path));
  ASSERT_TRUE(faers::TruncateFileAt(path, size - 3).ok());
  auto read = ReadCheckpoint(dir, "rules");
  EXPECT_TRUE(read.status().IsCorruption()) << read.status().ToString();
}

TEST(CheckpointFramingTest, BitFlipIsChecksumCorruption) {
  std::string dir = FreshDir("bitflip");
  ASSERT_TRUE(WriteCheckpoint(dir, "ranked", "sensitive payload").ok());
  std::string path = CheckpointPath(dir, "ranked");
  std::string bytes = ReadFileBytes(path);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  WriteFileBytes(path, bytes);
  auto read = ReadCheckpoint(dir, "ranked");
  ASSERT_TRUE(read.status().IsCorruption()) << read.status().ToString();
  EXPECT_NE(read.status().ToString().find("checksum"), std::string::npos)
      << read.status().ToString();
}

TEST(CheckpointFramingTest, BadMagicIsCorruption) {
  std::string dir = FreshDir("magic");
  ASSERT_TRUE(WriteCheckpoint(dir, "closed", "payload").ok());
  std::string path = CheckpointPath(dir, "closed");
  std::string bytes = ReadFileBytes(path);
  bytes[0] = static_cast<char>(bytes[0] ^ 0xff);
  WriteFileBytes(path, bytes);
  EXPECT_TRUE(ReadCheckpoint(dir, "closed").status().IsCorruption());
}

TEST(CheckpointFramingTest, ForeignVersionIsCorruption) {
  std::string dir = FreshDir("version");
  ASSERT_TRUE(WriteCheckpoint(dir, "closed", "payload").ok());
  std::string path = CheckpointPath(dir, "closed");
  std::string bytes = ReadFileBytes(path);
  // The version field follows the 4-byte magic.
  bytes[4] = static_cast<char>(kCheckpointVersion + 42);
  WriteFileBytes(path, bytes);
  EXPECT_TRUE(ReadCheckpoint(dir, "closed").status().IsCorruption());
}

TEST(CheckpointFramingTest, MisfiledSnapshotIsStageMismatchCorruption) {
  std::string dir = FreshDir("misfiled");
  ASSERT_TRUE(WriteCheckpoint(dir, "rules", "payload").ok());
  // A snapshot copied under another stage's name must not be accepted.
  fs::copy_file(CheckpointPath(dir, "rules"), CheckpointPath(dir, "ranked"));
  auto read = ReadCheckpoint(dir, "ranked");
  ASSERT_TRUE(read.status().IsCorruption()) << read.status().ToString();
  EXPECT_NE(read.status().ToString().find("rules"), std::string::npos)
      << read.status().ToString();
}

// ---------------------------------------------------------------------------
// Payload codecs: bit-exact roundtrips and corruption rejection.
// ---------------------------------------------------------------------------

TEST(CheckpointCodecTest, ItemsetResultRoundTripsBitExactly) {
  mining::FrequentItemsetResult result;
  result.Add({1, 2, 3}, 10);
  result.Add({2}, 5);
  result.Add({4, 7}, 3);
  std::string encoded = EncodeItemsetResult(result);
  auto decoded = DecodeItemsetResult(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), result.size());
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(decoded->itemsets()[i].items, result.itemsets()[i].items);
    EXPECT_EQ(decoded->itemsets()[i].support, result.itemsets()[i].support);
  }
  EXPECT_EQ(EncodeItemsetResult(*decoded), encoded);
}

TEST(CheckpointCodecTest, RulesRoundTripDoublesBitExactly) {
  DrugAdrRule rule;
  rule.drugs = {3, 9};
  rule.adrs = {14};
  rule.support = 21;
  rule.antecedent_support = 30;
  rule.consequent_support = 44;
  rule.confidence = 0.1 + 0.2;  // 0.30000000000000004 — not representable
  rule.lift = 1.0 / 3.0;        // exactly, so bit-fidelity matters
  std::string encoded = EncodeRules({rule});
  auto decoded = DecodeRules(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0].drugs, rule.drugs);
  EXPECT_EQ((*decoded)[0].adrs, rule.adrs);
  EXPECT_EQ((*decoded)[0].confidence, rule.confidence);
  EXPECT_EQ((*decoded)[0].lift, rule.lift);
  EXPECT_EQ(EncodeRules(*decoded), encoded);
}

TEST(CheckpointCodecTest, RankedMcacsRoundTrip) {
  DrugAdrRule target;
  target.drugs = {1, 2};
  target.adrs = {5};
  target.support = 9;
  target.confidence = 0.75;
  DrugAdrRule context = target;
  context.drugs = {1};
  Mcac mcac;
  mcac.target = target;
  mcac.levels = {{context}};
  RankedMcac ranked{mcac, 0.625};
  std::string encoded = EncodeRankedMcacs({ranked});
  auto decoded = DecodeRankedMcacs(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0].score, 0.625);
  EXPECT_EQ((*decoded)[0].mcac.target.drugs, target.drugs);
  ASSERT_EQ((*decoded)[0].mcac.levels.size(), 1u);
  EXPECT_EQ((*decoded)[0].mcac.levels[0][0].drugs, context.drugs);
  EXPECT_EQ(EncodeRankedMcacs(*decoded), encoded);
}

TEST(CheckpointCodecTest, ClosedCheckpointRoundTrip) {
  ClosedCheckpoint closed;
  closed.stats = {100, 40, 30, 12};
  closed.min_support_used = 24;
  closed.truncated = true;
  closed.notes = {"memory budget exhausted at min_support=12"};
  closed.closed.Add({2, 6}, 24);
  std::string encoded = EncodeClosedCheckpoint(closed);
  auto decoded = DecodeClosedCheckpoint(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->stats.total_rules, 100u);
  EXPECT_EQ(decoded->stats.mcac_count, 12u);
  EXPECT_EQ(decoded->min_support_used, 24u);
  EXPECT_TRUE(decoded->truncated);
  EXPECT_EQ(decoded->notes, closed.notes);
  EXPECT_EQ(EncodeClosedCheckpoint(*decoded), encoded);
}

TEST(CheckpointCodecTest, MineShardCheckpointRejectsAnotherStride) {
  MineShardCheckpoint shard;
  shard.shard_index = 1;
  shard.shard_count = 3;
  shard.min_support = 4;
  shard.max_itemset_size = 5;
  shard.frequent.Add({2, 6}, 9);
  const std::string encoded = EncodeMineShardCheckpoint(shard);
  auto decoded = DecodeMineShardCheckpoint(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->shard_index, 1u);
  EXPECT_EQ(decoded->shard_count, 3u);
  EXPECT_EQ(EncodeMineShardCheckpoint(*decoded), encoded);
  // A payload without the stride tag (the layout written before the stride
  // was indexed over every item) and one with another tag are both stale:
  // their slice partitions the items differently.
  const std::string untagged = encoded.substr(0, encoded.size() - 1);
  EXPECT_TRUE(DecodeMineShardCheckpoint(untagged).status().IsCorruption());
  std::string retagged = encoded;
  retagged.back() = static_cast<char>(retagged.back() + 1);
  EXPECT_TRUE(DecodeMineShardCheckpoint(retagged).status().IsCorruption());
}

TEST(CheckpointCodecTest, PreprocessResultRoundTripsGeneratedQuarter) {
  faers::GeneratorConfig config;
  config.year = 2052;
  config.quarter = 4;
  config.n_reports = 200;
  config.n_drugs = 60;
  config.n_adrs = 30;
  config.seed = 4242;
  auto dataset = faers::SyntheticGenerator(config).Generate();
  ASSERT_TRUE(dataset.ok());
  faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
  auto pre = preprocessor.Process(*dataset);
  ASSERT_TRUE(pre.ok());
  std::string encoded = EncodePreprocessResult(*pre);
  auto decoded = DecodePreprocessResult(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->items.size(), pre->items.size());
  EXPECT_EQ(decoded->transactions.size(), pre->transactions.size());
  EXPECT_EQ(decoded->primary_ids, pre->primary_ids);
  EXPECT_EQ(decoded->stats.reports_kept, pre->stats.reports_kept);
  EXPECT_EQ(EncodePreprocessResult(*decoded), encoded);
}

TEST(CheckpointCodecTest, FewerPrimaryIdsThanTransactionsIsCorruption) {
  faers::GeneratorConfig config;
  config.year = 2052;
  config.quarter = 4;
  config.n_reports = 200;
  config.seed = 4242;
  auto dataset = faers::SyntheticGenerator(config).Generate();
  ASSERT_TRUE(dataset.ok());
  faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
  auto pre = preprocessor.Process(*dataset);
  ASSERT_TRUE(pre.ok());
  ASSERT_GT(pre->primary_ids.size(), 0u);
  // MergeQuarters reads primary_ids[t] for every transaction t, so a short
  // id list must not decode.
  pre->primary_ids.pop_back();
  auto decoded = DecodePreprocessResult(EncodePreprocessResult(*pre));
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
  EXPECT_NE(decoded.status().ToString().find("primary ids"),
            std::string::npos)
      << decoded.status().ToString();
}

TEST(CheckpointCodecTest, QuarterCheckpointRoundTripsSkippedQuarter) {
  QuarterCheckpoint quarter;
  quarter.outcome.label = "2052Q9";
  quarter.outcome.loaded = false;
  quarter.outcome.error = "validation failed";
  quarter.outcome.ingest.warnings.push_back("skipping quarter 2052Q9");
  std::string encoded = EncodeQuarterCheckpoint(quarter);
  auto decoded = DecodeQuarterCheckpoint(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->outcome.label, "2052Q9");
  EXPECT_FALSE(decoded->outcome.loaded);
  EXPECT_EQ(decoded->outcome.error, "validation failed");
  EXPECT_FALSE(decoded->result.has_value());
  EXPECT_EQ(EncodeQuarterCheckpoint(*decoded), encoded);
}

TEST(CheckpointCodecTest, TruncatedPayloadIsCorruption) {
  mining::FrequentItemsetResult result;
  result.Add({1, 2, 3}, 10);
  std::string encoded = EncodeItemsetResult(result);
  auto decoded =
      DecodeItemsetResult(std::string_view(encoded).substr(0, encoded.size() - 2));
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
}

TEST(CheckpointCodecTest, TrailingGarbageIsCorruption) {
  std::string encoded = EncodeRules({});
  encoded += "extra";
  EXPECT_TRUE(DecodeRules(encoded).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// Crash injection + resume. A run killed at any stage boundary — leaving
// exactly the checkpoints written so far — must resume to a result
// byte-identical to an uninterrupted run, at any thread count.
// ---------------------------------------------------------------------------

std::vector<faers::QuarterDataset> MakeQuarters(uint64_t seed) {
  std::vector<faers::QuarterDataset> quarters;
  for (int q = 1; q <= 3; ++q) {
    faers::GeneratorConfig config;
    config.year = 2052;
    config.quarter = q;
    config.n_reports = 900;
    config.n_drugs = 200;
    config.n_adrs = 100;
    config.seed = seed + static_cast<uint64_t>(q);
    auto dataset = faers::SyntheticGenerator(config).Generate();
    EXPECT_TRUE(dataset.ok());
    quarters.push_back(*std::move(dataset));
  }
  return quarters;
}

AnalyzerOptions HarnessAnalyzer(size_t num_threads) {
  AnalyzerOptions analyzer;
  analyzer.mining.min_support = 6;
  analyzer.mining.num_threads = num_threads;
  return analyzer;
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

class CheckpointResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    quarters_ = new std::vector<faers::QuarterDataset>(MakeQuarters(8100));
    MultiQuarterPipeline pipeline{MultiQuarterOptions{}};
    auto reference = pipeline.RunAnalyzed(*quarters_, HarnessAnalyzer(1));
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_GT(reference->ranked.size(), 0u)
        << "harness corpus must produce MCACs or identity checks are vacuous";
    reference_ = new StageEncodings(Encode(*reference));
  }
  static void TearDownTestSuite() {
    delete quarters_;
    delete reference_;
  }

  static std::vector<faers::QuarterDataset>* quarters_;
  static StageEncodings* reference_;
};

std::vector<faers::QuarterDataset>* CheckpointResumeTest::quarters_ = nullptr;
StageEncodings* CheckpointResumeTest::reference_ = nullptr;

MultiQuarterOptions CheckpointedOptions(const std::string& dir,
                                        size_t num_threads) {
  MultiQuarterOptions options;
  options.num_threads = num_threads;
  options.checkpoint_dir = dir;
  return options;
}

// Kills the run at `crash_stage` (after its checkpoint landed), then resumes
// and asserts the final product is byte-identical to the reference.
void CrashThenResume(const std::vector<faers::QuarterDataset>& quarters,
                     const StageEncodings& reference,
                     const std::string& crash_stage, size_t num_threads,
                     const std::string& tag) {
  std::string dir = FreshDir(tag);

  MultiQuarterOptions crash = CheckpointedOptions(dir, num_threads);
  crash.stage_hook = [&crash_stage](const std::string& stage) {
    return stage != crash_stage;
  };
  auto killed =
      MultiQuarterPipeline(crash).RunAnalyzed(quarters,
                                              HarnessAnalyzer(num_threads));
  ASSERT_TRUE(killed.status().IsCancelled()) << killed.status().ToString();
  EXPECT_NE(killed.status().ToString().find("injected crash"),
            std::string::npos)
      << killed.status().ToString();
  ASSERT_TRUE(fs::exists(CheckpointPath(dir, crash_stage)))
      << "crash fired before its stage checkpoint landed";

  MultiQuarterOptions retry = CheckpointedOptions(dir, num_threads);
  retry.resume = true;
  auto resumed =
      MultiQuarterPipeline(retry).RunAnalyzed(quarters,
                                              HarnessAnalyzer(num_threads));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_GT(resumed->stages_resumed, 0u);
  ExpectIdentical(Encode(*resumed), reference);
}

TEST_F(CheckpointResumeTest, CrashAtEveryStageBoundarySerial) {
  const std::vector<std::string> stages = {"quarter-2052Q1", "quarter-2052Q3",
                                           "closed", "rules", "ranked"};
  for (const std::string& stage : stages) {
    SCOPED_TRACE(stage);
    CrashThenResume(*quarters_, *reference_, stage, 1, "crash_t1_" + stage);
  }
}

TEST_F(CheckpointResumeTest, CrashAtEveryStageBoundaryParallel) {
  const std::vector<std::string> stages = {"quarter-2052Q2", "closed", "rules",
                                           "ranked"};
  for (const std::string& stage : stages) {
    SCOPED_TRACE(stage);
    CrashThenResume(*quarters_, *reference_, stage, 8, "crash_t8_" + stage);
  }
}

TEST_F(CheckpointResumeTest, ResumeAfterFullRunReplaysEveryStage) {
  std::string dir = FreshDir("full_replay");
  auto first = MultiQuarterPipeline(CheckpointedOptions(dir, 1))
                   .RunAnalyzed(*quarters_, HarnessAnalyzer(1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->stages_resumed, 0u);

  MultiQuarterOptions retry = CheckpointedOptions(dir, 8);
  retry.resume = true;
  // A resumed run must never fire the crash hook for replayed stages.
  retry.stage_hook = [](const std::string&) { return false; };
  auto replay = MultiQuarterPipeline(retry).RunAnalyzed(*quarters_,
                                                        HarnessAnalyzer(8));
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  // 3 quarters + closed + rules + ranked.
  EXPECT_EQ(replay->stages_resumed, 6u);
  ExpectIdentical(Encode(*replay), *reference_);
}

TEST_F(CheckpointResumeTest, TornSnapshotIsRejectedAndRecomputed) {
  std::string dir = FreshDir("torn_resume");
  auto first = MultiQuarterPipeline(CheckpointedOptions(dir, 1))
                   .RunAnalyzed(*quarters_, HarnessAnalyzer(1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Tear the closed-stage snapshot mid-file, as a crash inside a non-atomic
  // writer would have.
  std::string path = CheckpointPath(dir, "closed");
  size_t size = static_cast<size_t>(fs::file_size(path));
  ASSERT_TRUE(faers::TruncateFileAt(path, size / 2).ok());

  MultiQuarterOptions retry = CheckpointedOptions(dir, 1);
  retry.resume = true;
  auto resumed = MultiQuarterPipeline(retry).RunAnalyzed(*quarters_,
                                                         HarnessAnalyzer(1));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  bool noted = false;
  for (const std::string& note : resumed->notes) {
    if (note.find("rejected") != std::string::npos &&
        note.find("closed") != std::string::npos) {
      noted = true;
      EXPECT_NE(note.find("recomputing"), std::string::npos) << note;
    }
  }
  EXPECT_TRUE(noted) << "no note names the rejected snapshot";
  ExpectIdentical(Encode(*resumed), *reference_);
  // The recomputed stage must republish a valid snapshot.
  EXPECT_TRUE(ReadCheckpoint(dir, "closed").ok());
}

TEST_F(CheckpointResumeTest, BitFlippedSnapshotIsRejectedAndRecomputed) {
  std::string dir = FreshDir("flip_resume");
  auto first = MultiQuarterPipeline(CheckpointedOptions(dir, 1))
                   .RunAnalyzed(*quarters_, HarnessAnalyzer(1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  std::string path = CheckpointPath(dir, "rules");
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteFileBytes(path, bytes);

  MultiQuarterOptions retry = CheckpointedOptions(dir, 1);
  retry.resume = true;
  auto resumed = MultiQuarterPipeline(retry).RunAnalyzed(*quarters_,
                                                         HarnessAnalyzer(1));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  bool noted = false;
  for (const std::string& note : resumed->notes) {
    noted = noted || (note.find("rejected") != std::string::npos &&
                      note.find("rules") != std::string::npos);
  }
  EXPECT_TRUE(noted) << "no note names the rejected snapshot";
  ExpectIdentical(Encode(*resumed), *reference_);
}

TEST_F(CheckpointResumeTest, ShortPrimaryIdListIsRejectedAndRecomputed) {
  std::string dir = FreshDir("short_ids_resume");
  auto first = MultiQuarterPipeline(CheckpointedOptions(dir, 1))
                   .RunAnalyzed(*quarters_, HarnessAnalyzer(1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // A well-framed quarter checkpoint whose result holds one primary id
  // fewer than it has transactions.
  auto quarter = ReadQuarterCheckpoint(dir, "2052Q2");
  ASSERT_TRUE(quarter.ok()) << quarter.status().ToString();
  ASSERT_TRUE(quarter->result.has_value());
  quarter->result->primary_ids.pop_back();
  ASSERT_TRUE(WriteCheckpoint(dir, "quarter-2052Q2",
                              EncodeQuarterCheckpoint(*quarter))
                  .ok());

  MultiQuarterOptions retry = CheckpointedOptions(dir, 1);
  retry.resume = true;
  auto resumed = MultiQuarterPipeline(retry).RunAnalyzed(*quarters_,
                                                         HarnessAnalyzer(1));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  bool noted = false;
  for (const std::string& note : resumed->notes) {
    if (note.find("rejected") != std::string::npos &&
        note.find("quarter-2052Q2") != std::string::npos) {
      noted = true;
      EXPECT_NE(note.find("recomputing"), std::string::npos) << note;
      EXPECT_NE(note.find("primary ids"), std::string::npos) << note;
    }
  }
  EXPECT_TRUE(noted) << "no note names the rejected quarter";
  ExpectIdentical(Encode(*resumed), *reference_);
  // The recomputed quarter republishes a checkpoint that decodes.
  EXPECT_TRUE(ReadQuarterCheckpoint(dir, "2052Q2").ok());
}

TEST_F(CheckpointResumeTest, VersionOneQuarterCheckpointIsRejectedAndRecomputed) {
  std::string dir = FreshDir("v1_quarter_resume");
  auto first = MultiQuarterPipeline(CheckpointedOptions(dir, 1))
                   .RunAnalyzed(*quarters_, HarnessAnalyzer(1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // A quarter checkpoint from before version 2 (whose payload still held
  // each report's sex and age): the same framing, with version 1 in the
  // field after the 4-byte magic.
  const std::string path = CheckpointPath(dir, "quarter-2052Q2");
  std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes[4], static_cast<char>(kCheckpointVersion));
  bytes[4] = 1;
  WriteFileBytes(path, bytes);

  MultiQuarterOptions retry = CheckpointedOptions(dir, 1);
  retry.resume = true;
  auto resumed = MultiQuarterPipeline(retry).RunAnalyzed(*quarters_,
                                                         HarnessAnalyzer(1));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  bool noted = false;
  for (const std::string& note : resumed->notes) {
    if (note.find("rejected") != std::string::npos &&
        note.find("quarter-2052Q2") != std::string::npos) {
      noted = true;
      EXPECT_NE(note.find("unsupported checkpoint version 1"),
                std::string::npos)
          << note;
      EXPECT_NE(note.find("recomputing"), std::string::npos) << note;
    }
  }
  EXPECT_TRUE(noted) << "no note names the rejected quarter";
  ExpectIdentical(Encode(*resumed), *reference_);
  // The quarter is republished at the current version.
  EXPECT_TRUE(ReadQuarterCheckpoint(dir, "2052Q2").ok());
  EXPECT_EQ(ReadFileBytes(path)[4], static_cast<char>(kCheckpointVersion));
}

TEST_F(CheckpointResumeTest, ClosedFamilyPastTheCapIsRecomputedWithLaterStages) {
  std::string dir = FreshDir("cap_resume");
  auto uncapped = MultiQuarterPipeline(CheckpointedOptions(dir, 1))
                      .RunAnalyzed(*quarters_, HarnessAnalyzer(1));
  ASSERT_TRUE(uncapped.ok()) << uncapped.status().ToString();
  AnalyzerOptions capped = HarnessAnalyzer(1);
  capped.mining.max_itemset_size = 3;
  bool past_cap = false;
  for (const mining::FrequentItemset& fi : uncapped->closed.itemsets()) {
    past_cap = past_cap || fi.items.size() > 3;
  }
  ASSERT_TRUE(past_cap) << "the uncapped family must hold an itemset past "
                           "the cap or the rejection is vacuous";
  auto want = MultiQuarterPipeline(MultiQuarterOptions{})
                  .RunAnalyzed(*quarters_, capped);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  // Resuming under the cap must not replay the uncapped closed family, nor
  // the rules and ranking derived from it.
  MultiQuarterOptions retry = CheckpointedOptions(dir, 1);
  retry.resume = true;
  auto resumed = MultiQuarterPipeline(retry).RunAnalyzed(*quarters_, capped);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  bool noted = false;
  for (const std::string& note : resumed->notes) {
    noted = noted || (note.find("rejected") != std::string::npos &&
                      note.find("max_itemset_size") != std::string::npos);
  }
  EXPECT_TRUE(noted) << "no note names the rejected closed family";
  EXPECT_EQ(resumed->stages_resumed, 3u);  // the three quarters only
  ExpectIdentical(Encode(*resumed), Encode(*want));
}

// ---------------------------------------------------------------------------
// Options records: a stage checkpoint replays only under the options it was
// made under. Each case checkpoints a full run under `made`, resumes under
// `now`, and expects the stages from `rejected` on to be recomputed (with a
// note) and the product to equal a fresh run under `now`.
// ---------------------------------------------------------------------------

struct OptionsCase {
  AnalyzerOptions analyzer = HarnessAnalyzer(1);
  RankingMethod method = RankingMethod::kExclusivenessConfidence;
};

void ExpectRecomputedUnderNewOptions(
    const std::vector<faers::QuarterDataset>& quarters, const std::string& tag,
    const OptionsCase& made, const OptionsCase& now,
    const std::string& rejected, size_t stages_resumed) {
  std::string dir = FreshDir(tag);
  auto first = MultiQuarterPipeline(CheckpointedOptions(dir, 1))
                   .RunAnalyzed(quarters, made.analyzer, made.method);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto want = MultiQuarterPipeline(MultiQuarterOptions{})
                  .RunAnalyzed(quarters, now.analyzer, now.method);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_NE(Encode(*first).ranked, Encode(*want).ranked)
      << "the options change must change the ranking or the case is vacuous";

  MultiQuarterOptions retry = CheckpointedOptions(dir, 1);
  retry.resume = true;
  auto resumed = MultiQuarterPipeline(retry).RunAnalyzed(quarters, now.analyzer,
                                                         now.method);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->stages_resumed, stages_resumed);
  bool noted = false;
  for (const std::string& note : resumed->notes) {
    noted = noted ||
            (note.find("checkpoint for stage '" + rejected + "' rejected") !=
                 std::string::npos &&
             note.find("other options") != std::string::npos &&
             note.find("recomputing") != std::string::npos);
  }
  EXPECT_TRUE(noted) << "no note rejects stage " << rejected;
  ExpectIdentical(Encode(*resumed), Encode(*want));
}

TEST_F(CheckpointResumeTest, SmallerCapCheckpointIsRecomputedUnderLargerCap) {
  // Every itemset of a family mined under cap 3 fits under cap 8, so only
  // the options record tells the two apart.
  OptionsCase made;
  made.analyzer.mining.max_itemset_size = 3;
  ExpectRecomputedUnderNewOptions(*quarters_, "options_cap", made,
                                  OptionsCase{}, "closed", 3);
}

TEST_F(CheckpointResumeTest, ChangedSupportRecomputesEveryStage) {
  OptionsCase now;
  now.analyzer.mining.min_support = 9;
  ExpectRecomputedUnderNewOptions(*quarters_, "options_support",
                                  OptionsCase{}, now, "closed", 3);
}

TEST_F(CheckpointResumeTest, ChangedMinConfidenceRecomputesEveryStage) {
  // The closed stage counts the rule space at min_confidence, so even it
  // cannot replay.
  OptionsCase now;
  now.analyzer.min_confidence = 0.3;
  ExpectRecomputedUnderNewOptions(*quarters_, "options_confidence",
                                  OptionsCase{}, now, "closed", 3);
}

TEST_F(CheckpointResumeTest, ChangedMethodRecomputesOnlyTheRanking) {
  OptionsCase now;
  now.method = RankingMethod::kLift;
  // 3 quarters + closed + rules replay.
  ExpectRecomputedUnderNewOptions(*quarters_, "options_method",
                                  OptionsCase{}, now, "ranked", 5);
}

TEST_F(CheckpointResumeTest, CheckpointWithoutOptionsRecordIsRecomputed) {
  std::string dir = FreshDir("options_missing");
  auto first = MultiQuarterPipeline(CheckpointedOptions(dir, 1))
                   .RunAnalyzed(*quarters_, HarnessAnalyzer(1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Rewrite "closed" as a checkpoint made before stages carried a record:
  // the bare payload, still correctly framed and checksummed.
  auto framed = ReadCheckpoint(dir, "closed");
  ASSERT_TRUE(framed.ok()) << framed.status().ToString();
  const size_t record_end = framed->find('\n');
  ASSERT_NE(record_end, std::string::npos);
  ASSERT_TRUE(
      WriteCheckpoint(dir, "closed", framed->substr(record_end + 1)).ok());

  MultiQuarterOptions retry = CheckpointedOptions(dir, 1);
  retry.resume = true;
  auto resumed = MultiQuarterPipeline(retry).RunAnalyzed(*quarters_,
                                                         HarnessAnalyzer(1));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->stages_resumed, 3u);  // the three quarters only
  bool noted = false;
  for (const std::string& note : resumed->notes) {
    noted = noted || note.find("no options record") != std::string::npos;
  }
  EXPECT_TRUE(noted);
  ExpectIdentical(Encode(*resumed), *reference_);
}

// A second corpus seed: the identity guarantee is a property of the
// machinery, not of one lucky dataset.
TEST(CheckpointResumeSeedsTest, CrashResumeIdentityHoldsAcrossSeeds) {
  for (uint64_t seed : {31337ull, 977ull}) {
    SCOPED_TRACE(seed);
    auto quarters = MakeQuarters(seed);
    MultiQuarterPipeline pipeline{MultiQuarterOptions{}};
    auto reference = pipeline.RunAnalyzed(quarters, HarnessAnalyzer(1));
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    CrashThenResume(quarters, Encode(*reference), "closed", 8,
                    "seed_" + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Cross-mode oracle: Analyze, RunAnalyzed and a crashed-then-resumed
// RunAnalyzed all run the one stage sequence, so their closed family,
// rule-space statistics and ranked MCACs must be byte-identical at any
// thread count.
// ---------------------------------------------------------------------------

void ExpectSameStats(const RuleSpaceStats& got, const RuleSpaceStats& want) {
  EXPECT_EQ(got.total_rules, want.total_rules);
  EXPECT_EQ(got.filtered_rules, want.filtered_rules);
  EXPECT_EQ(got.closed_mixed, want.closed_mixed);
  EXPECT_EQ(got.mcac_count, want.mcac_count);
}

class StageSequenceDifferentialOracleTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StageSequenceDifferentialOracleTest,
       AnalyzeRunAnalyzedAndResumeAreByteIdentical) {
  const std::vector<faers::QuarterDataset> quarters = MakeQuarters(GetParam());
  for (size_t threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const AnalyzerOptions analyzer = HarnessAnalyzer(threads);
    MultiQuarterOptions plain;
    plain.num_threads = threads;
    auto reference =
        MultiQuarterPipeline(plain).RunAnalyzed(quarters, analyzer);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_GT(reference->ranked.size(), 0u);
    const StageEncodings want = Encode(*reference);

    auto analyzed = MarasAnalyzer(analyzer).Analyze(reference->run.merged);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    EXPECT_EQ(EncodeRankedMcacs(RankMcacs(
                  analyzed->mcacs, RankingMethod::kExclusivenessConfidence,
                  analyzer.exclusiveness)),
              want.ranked);
    ExpectSameStats(analyzed->stats, reference->stats);

    const std::string dir = FreshDir("stage_sequence_" +
                                     std::to_string(GetParam()) + "_t" +
                                     std::to_string(threads));
    MultiQuarterOptions crash = CheckpointedOptions(dir, threads);
    crash.stage_hook = [](const std::string& stage) {
      return stage != "rules";
    };
    auto killed = MultiQuarterPipeline(crash).RunAnalyzed(quarters, analyzer);
    ASSERT_TRUE(killed.status().IsCancelled()) << killed.status().ToString();
    MultiQuarterOptions retry = CheckpointedOptions(dir, threads);
    retry.resume = true;
    auto resumed = MultiQuarterPipeline(retry).RunAnalyzed(quarters, analyzer);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    // 3 quarters + closed + rules replayed; ranked recomputed.
    EXPECT_EQ(resumed->stages_resumed, 5u);
    ExpectIdentical(Encode(*resumed), want);
    ExpectSameStats(resumed->stats, reference->stats);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StageSequenceDifferentialOracleTest,
                         ::testing::Values(8100, 31337, 977));

}  // namespace
}  // namespace maras::core
