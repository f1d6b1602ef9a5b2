// Deterministic corruption-injection harness and its recovery invariants:
// the same seed always yields the same damage; strict ingestion fails fast
// on every fault kind; quarantine ingestion recovers every untouched report
// byte-identically, and its accounting matches the injected faults
// one-to-one.

#include "faers/corruptor.h"
#include "tests/oracles/crash_harness.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "faers/generator.h"

namespace maras::faers {
namespace {

QuarterDataset GenerateQuarter(uint64_t seed, size_t reports = 300) {
  GeneratorConfig config;
  config.seed = seed;
  config.n_reports = reports;
  config.n_drugs = 200;
  config.n_adrs = 80;
  SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  EXPECT_TRUE(dataset.ok());
  return *std::move(dataset);
}

AsciiQuarterFiles WriteQuarter(const QuarterDataset& dataset) {
  auto files = WriteAsciiQuarter(dataset);
  EXPECT_TRUE(files.ok());
  return *files;
}

IngestOptions PolicyOptions(IngestPolicy policy) {
  IngestOptions options;
  options.policy = policy;
  options.max_bad_row_fraction = 0.5;
  return options;
}

// Reports of two datasets are compared by content: each dataset numbers
// its raw names in its own arena.
bool SameReport(const QuarterDataset& da, const Report& a,
                const QuarterDataset& db, const Report& b) {
  return a.case_id == b.case_id && a.case_version == b.case_version &&
         a.type == b.type && a.sex == b.sex && a.age == b.age &&
         a.country == b.country && da.Names(a.drugs) == db.Names(b.drugs) &&
         da.Names(a.reactions) == db.Names(b.reactions);
}

TEST(CorruptorTest, SameSeedIsByteIdentical) {
  QuarterDataset dataset = GenerateQuarter(11);
  AsciiQuarterFiles clean = WriteQuarter(dataset);
  CorruptorConfig config;
  config.seed = 42;
  config.faults = AllRowFaults(2);
  auto first = Corruptor(config).Corrupt(clean, 2014, 1);
  auto second = Corruptor(config).Corrupt(clean, 2014, 1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->files.demo, second->files.demo);
  EXPECT_EQ(first->files.drug, second->files.drug);
  EXPECT_EQ(first->files.reac, second->files.reac);
  ASSERT_EQ(first->faults.size(), second->faults.size());
  for (size_t i = 0; i < first->faults.size(); ++i) {
    EXPECT_EQ(first->faults[i].file, second->faults[i].file);
    EXPECT_EQ(first->faults[i].line, second->faults[i].line);
    EXPECT_EQ(first->faults[i].detail, second->faults[i].detail);
  }
  EXPECT_EQ(first->faulted_primary_ids, second->faulted_primary_ids);
}

TEST(CorruptorTest, DifferentSeedsDiverge) {
  QuarterDataset dataset = GenerateQuarter(11);
  AsciiQuarterFiles clean = WriteQuarter(dataset);
  CorruptorConfig config;
  config.faults = AllRowFaults(2);
  config.seed = 1;
  auto first = Corruptor(config).Corrupt(clean, 2014, 1);
  config.seed = 2;
  auto second = Corruptor(config).Corrupt(clean, 2014, 1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->files.demo + first->files.drug + first->files.reac,
            second->files.demo + second->files.drug + second->files.reac);
}

TEST(CorruptorTest, FaultsNeverShareAReport) {
  QuarterDataset dataset = GenerateQuarter(23);
  AsciiQuarterFiles clean = WriteQuarter(dataset);
  CorruptorConfig config;
  config.seed = 7;
  config.faults = AllRowFaults(3);
  auto corrupted = Corruptor(config).Corrupt(clean, 2014, 1);
  ASSERT_TRUE(corrupted.ok());
  EXPECT_EQ(RowFaultCount(*corrupted), 24u);
  // One fault per victim report: the damaged-report set is as large as the
  // number of faults that damage existing rows (orphans damage nobody).
  size_t victim_faults = 0;
  for (const InjectedFault& fault : corrupted->faults) {
    victim_faults += fault.primary_id != 0;
  }
  EXPECT_EQ(corrupted->faulted_primary_ids.size(), victim_faults);
}

struct KindCase {
  FaultKind kind;
  RowFault expected;
};

class FaultKindTest : public ::testing::TestWithParam<KindCase> {};

TEST_P(FaultKindTest, SingleFaultRoundTrip) {
  const KindCase param = GetParam();
  QuarterDataset dataset = GenerateQuarter(31);
  AsciiQuarterFiles clean = WriteQuarter(dataset);
  CorruptorConfig config;
  config.seed = 99;
  config.faults = {{param.kind, 1}};
  auto corrupted = Corruptor(config).Corrupt(clean, 2014, 1);
  ASSERT_TRUE(corrupted.ok());
  ASSERT_EQ(corrupted->faults.size(), 1u);

  // Strict mode fails fast on every fault kind.
  EXPECT_TRUE(ReadAsciiQuarter(corrupted->files, 2014, 1)
                  .status()
                  .IsCorruption())
      << FaultKindName(param.kind);

  // Quarantine mode recovers and attributes exactly one root-cause fault of
  // the expected classification, naming the damaged file and line.
  IngestReport report;
  auto parsed = ReadAsciiQuarter(corrupted->files, 2014, 1,
                                 PolicyOptions(IngestPolicy::kQuarantine),
                                 &report);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(RootFaultCount(report), 1u);
  const QuarantinedRow* root = nullptr;
  for (const QuarantinedRow& row : report.quarantined) {
    if (row.fault != RowFault::kCollateral) {
      ASSERT_EQ(root, nullptr) << "more than one root-cause row";
      root = &row;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->fault, param.expected) << static_cast<int>(root->fault);
  EXPECT_EQ(root->file, corrupted->faults[0].file);
  EXPECT_EQ(root->line, corrupted->faults[0].line);
  EXPECT_FALSE(root->reason.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, FaultKindTest,
    ::testing::Values(
        KindCase{FaultKind::kTruncateRow, RowFault::kMalformedRow},
        KindCase{FaultKind::kEmbeddedDelimiter, RowFault::kMalformedRow},
        KindCase{FaultKind::kDropColumn, RowFault::kMalformedRow},
        KindCase{FaultKind::kReorderColumns, RowFault::kBadCode},
        KindCase{FaultKind::kGarbageNumeric, RowFault::kBadNumeric},
        KindCase{FaultKind::kDuplicatePrimaryId,
                 RowFault::kDuplicatePrimaryId},
        KindCase{FaultKind::kOrphanDrugRow, RowFault::kOrphanRow},
        KindCase{FaultKind::kOrphanReacRow, RowFault::kOrphanRow}));

// The satellite round-trip invariant: generate, corrupt with N seeded
// faults, re-ingest under both policies, and assert the recovery rate and
// quarantine accounting across seeds.
class RecoverySweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecoverySweepTest, InvariantsHoldAtEverySeed) {
  const uint64_t seed = GetParam();
  QuarterDataset dataset = GenerateQuarter(seed, 400);
  AsciiQuarterFiles clean = WriteQuarter(dataset);
  CorruptorConfig config;
  config.seed = seed * 1000003 + 17;
  config.faults = AllRowFaults(2);
  auto corrupted = Corruptor(config).Corrupt(clean, 2014, 1);
  ASSERT_TRUE(corrupted.ok());
  const size_t injected = RowFaultCount(*corrupted);
  ASSERT_EQ(injected, 16u);

  // Strict: fail fast, nothing recovered.
  EXPECT_TRUE(ReadAsciiQuarter(corrupted->files, 2014, 1)
                  .status()
                  .IsCorruption());

  // Quarantine: every untouched report is recovered byte-identically.
  IngestReport report;
  auto quarantined = ReadAsciiQuarter(
      corrupted->files, 2014, 1, PolicyOptions(IngestPolicy::kQuarantine),
      &report);
  ASSERT_TRUE(quarantined.ok()) << quarantined.status().ToString();
  std::map<uint64_t, const Report*> recovered;
  for (const Report& r : quarantined->reports) {
    recovered[r.primary_id()] = &r;
  }
  size_t untouched = 0;
  for (const Report& original : dataset.reports) {
    if (corrupted->faulted_primary_ids.count(original.primary_id()) > 0) {
      continue;
    }
    ++untouched;
    auto it = recovered.find(original.primary_id());
    ASSERT_NE(it, recovered.end())
        << "untouched report " << original.primary_id() << " lost";
    EXPECT_TRUE(SameReport(dataset, original, *quarantined, *it->second))
        << "untouched report " << original.primary_id() << " altered";
  }
  EXPECT_EQ(untouched, dataset.reports.size() -
                           corrupted->faulted_primary_ids.size());
  EXPECT_EQ(RootFaultCount(report), injected);
  EXPECT_EQ(report.quarantined.size(), report.rows_rejected);

  // Its diagnostics enumerate every injected fault with file/line/reason,
  // and collateral rows are classified apart.
  std::map<std::pair<std::string, size_t>, size_t> quarantined_at;
  size_t roots = 0;
  for (const QuarantinedRow& row : report.quarantined) {
    EXPECT_FALSE(row.file.empty());
    EXPECT_GT(row.line, 0u);
    EXPECT_FALSE(row.reason.empty());
    if (row.fault != RowFault::kCollateral) {
      ++roots;
      ++quarantined_at[{row.file, row.line}];
    }
  }
  EXPECT_EQ(roots, injected);
  for (const InjectedFault& fault : corrupted->faults) {
    auto it = quarantined_at.find({fault.file, fault.line});
    ASSERT_NE(it, quarantined_at.end())
        << FaultKindName(fault.kind) << " at " << fault.file << ":"
        << fault.line << " not quarantined";
    EXPECT_EQ(it->second, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoverySweepTest,
                         ::testing::Values(3, 57, 191, 4242, 90210));

TEST(CorruptorDirTest, MissingFileFaultRemovesTheFileOnDisk) {
  std::string dir = ::testing::TempDir();
  QuarterDataset dataset = GenerateQuarter(5, 50);
  dataset.year = 2017;
  dataset.quarter = 2;
  AsciiQuarterFiles clean = WriteQuarter(dataset);
  CorruptorConfig config;
  config.seed = 12;
  config.faults = {{FaultKind::kMissingFile, 1}};
  auto corrupted = Corruptor(config).Corrupt(clean, 2017, 2);
  ASSERT_TRUE(corrupted.ok());
  ASSERT_EQ(corrupted->missing.size(), 1u);
  ASSERT_TRUE(
      WriteCorruptedQuarterToDir(*corrupted, dir, 2017, 2).ok());
  auto parsed = ReadAsciiQuarterFromDir(dir, 2017, 2);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsIOError());
  EXPECT_NE(parsed.status().message().find(corrupted->missing[0]),
            std::string::npos);
  for (const char* name : {"DEMO17Q2.txt", "DRUG17Q2.txt", "REAC17Q2.txt"}) {
    std::remove((dir + "/" + name).c_str());
  }
}

TEST(CorruptorTest, RequestingTooManyFaultsFailsCleanly) {
  QuarterDataset dataset = GenerateQuarter(1, 5);
  AsciiQuarterFiles clean = WriteQuarter(dataset);
  CorruptorConfig config;
  // The generator pads small configs with default signal reports, so ask
  // for more faults than any plausible quarter of this size can host.
  config.faults = {{FaultKind::kGarbageNumeric, 100000}};
  auto corrupted = Corruptor(config).Corrupt(clean, 2014, 1);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.status().IsInvalidArgument());
}

// --- Torn-file primitives (shared with the checkpoint crash harness) ------

TEST(TornFileTest, TearIsDeterministicPerSeed) {
  QuarterDataset dataset = GenerateQuarter(23, 60);
  AsciiQuarterFiles clean = WriteQuarter(dataset);
  auto first = TearFileMidRecord(clean.demo, 7);
  auto second = TearFileMidRecord(clean.demo, 7);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->offset, second->offset);
  EXPECT_EQ(first->content, second->content);
  auto other = TearFileMidRecord(clean.demo, 8);
  ASSERT_TRUE(other.ok());
  // Different seeds may collide on one file, but the tear must depend on
  // the seed, not only on the content.
  bool diverged = false;
  for (uint64_t seed = 8; seed < 16 && !diverged; ++seed) {
    auto torn = TearFileMidRecord(clean.demo, seed);
    ASSERT_TRUE(torn.ok());
    diverged = torn->offset != first->offset;
  }
  EXPECT_TRUE(diverged);
}

TEST(TornFileTest, CutLandsStrictlyInsideADataRow) {
  QuarterDataset dataset = GenerateQuarter(29, 60);
  AsciiQuarterFiles clean = WriteQuarter(dataset);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    auto torn = TearFileMidRecord(clean.demo, seed);
    ASSERT_TRUE(torn.ok()) << seed;
    // The surviving prefix is a strict prefix of the original...
    ASSERT_LT(torn->offset, clean.demo.size()) << seed;
    EXPECT_EQ(torn->content, clean.demo.substr(0, torn->offset)) << seed;
    // ...whose final line is a non-empty fragment of a data row: the cut
    // never lands exactly on a line boundary and never in the header.
    EXPECT_NE(torn->content.back(), '\n') << seed;
    EXPECT_GT(torn->first_lost_line, 1u) << seed;
    EXPECT_NE(torn->damaged_primary_id, 0u) << seed;
  }
}

TEST(TornFileTest, TornQuarterStillIngestsPermissively) {
  QuarterDataset dataset = GenerateQuarter(31, 80);
  AsciiQuarterFiles clean = WriteQuarter(dataset);
  auto torn = TearFileMidRecord(clean.drug, 5);
  ASSERT_TRUE(torn.ok());
  AsciiQuarterFiles damaged = clean;
  damaged.drug = torn->content;
  EXPECT_FALSE(ReadAsciiQuarter(damaged, 2014, 1).ok())
      << "a torn table must fail strict ingestion";
  IngestReport report;
  auto quarantined = ReadAsciiQuarter(
      damaged, 2014, 1, PolicyOptions(IngestPolicy::kQuarantine), &report);
  ASSERT_TRUE(quarantined.ok()) << quarantined.status().ToString();
  EXPECT_GT(report.rows_rejected, 0u);
}

TEST(TornFileTest, ContentWithoutDataRowsIsRejected) {
  EXPECT_TRUE(TearFileMidRecord("", 1).status().IsInvalidArgument());
  EXPECT_TRUE(
      TearFileMidRecord("primaryid$caseid\n", 1).status().IsInvalidArgument());
}

TEST(TruncateFileAtTest, TruncatesToExactOffset) {
  std::string path = ::testing::TempDir() + "/maras_truncate_test.txt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "0123456789";
  }
  ASSERT_TRUE(TruncateFileAt(path, 4).ok());
  EXPECT_EQ(std::filesystem::file_size(path), 4u);
  std::ifstream in(path, std::ios::binary);
  std::string bytes(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>{});
  EXPECT_EQ(bytes, "0123");
  std::filesystem::remove(path);
}

TEST(TruncateFileAtTest, OffsetPastEndIsInvalidArgument) {
  std::string path = ::testing::TempDir() + "/maras_truncate_short.txt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "abc";
  }
  auto status = TruncateFileAt(path, 99);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.ToString().find(path), std::string::npos);
  std::filesystem::remove(path);
}

TEST(TruncateFileAtTest, MissingFileIsAnError) {
  EXPECT_FALSE(
      TruncateFileAt(::testing::TempDir() + "/maras_no_such_file", 0).ok());
}

}  // namespace
}  // namespace maras::faers
