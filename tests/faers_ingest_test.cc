// Recovery-policy behavior of the resilient FAERS reader: strict fails
// fast, quarantine skips within an error budget and captures per-row
// diagnostics — plus the policy gates threaded through validation and
// preprocessing.

#include "faers/ingest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "faers/ascii_format.h"
#include "faers/preprocess.h"
#include "faers/validate.h"
#include "tests/oracles/crash_harness.h"
#include "util/delimited.h"

namespace maras::faers {
namespace {

QuarterDataset SampleDataset() {
  QuarterDataset dataset;
  dataset.year = 2014;
  dataset.quarter = 1;
  for (uint64_t i = 0; i < 4; ++i) {
    Report r;
    r.case_id = 10000001 + i;
    r.case_version = 1;
    r.type = ReportType::kExpedited;
    r.sex = i % 2 == 0 ? Sex::kFemale : Sex::kMale;
    r.age = 40 + static_cast<double>(i);
    r.country = "US";
    r.drugs = dataset.names.InternAll({"ASPIRIN", "WARFARIN"});
    r.reactions = dataset.names.InternAll({"HAEMORRHAGE", "NAUSEA"});
    dataset.reports.push_back(std::move(r));
  }
  return dataset;
}

AsciiQuarterFiles CleanFiles() {
  auto files = WriteAsciiQuarter(SampleDataset());
  EXPECT_TRUE(files.ok());
  return *files;
}

IngestOptions Quarantine() {
  IngestOptions options;
  options.policy = IngestPolicy::kQuarantine;
  options.max_bad_row_fraction = 0.5;
  return options;
}

// Quarantined rows with the given fault classification.
size_t CountFault(const IngestReport& report, RowFault fault) {
  return static_cast<size_t>(std::count_if(
      report.quarantined.begin(), report.quarantined.end(),
      [fault](const QuarantinedRow& row) { return row.fault == fault; }));
}

// Replaces the first occurrence of `from` in `content`.
void Replace(std::string* content, const std::string& from,
             const std::string& to) {
  size_t pos = content->find(from);
  ASSERT_NE(pos, std::string::npos) << from;
  content->replace(pos, from.size(), to);
}

TEST(IngestPolicyTest, StrictIsDefaultAndMatchesLegacyReader) {
  AsciiQuarterFiles files = CleanFiles();
  auto legacy = ReadAsciiQuarter(files, 2014, 1);
  IngestReport report;
  auto strict = ReadAsciiQuarter(files, 2014, 1, IngestOptions{}, &report);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(strict.ok());
  ASSERT_EQ(strict->reports.size(), legacy->reports.size());
  for (size_t i = 0; i < strict->reports.size(); ++i) {
    EXPECT_EQ(strict->Names(strict->reports[i].drugs),
              legacy->Names(legacy->reports[i].drugs));
    EXPECT_EQ(strict->Names(strict->reports[i].reactions),
              legacy->Names(legacy->reports[i].reactions));
  }
  EXPECT_EQ(report.rows_seen, 4u + 8u + 8u);
  EXPECT_EQ(report.rows_rejected, 0u);
  EXPECT_EQ(report.reports_ingested, 4u);
}

TEST(IngestPolicyTest, StrictGarbageCaseidIsNowCorruption) {
  // Regression for the unchecked strtoull: a garbage caseid used to coerce
  // silently to 0; it must be a diagnosed row-level Corruption.
  AsciiQuarterFiles files = CleanFiles();
  Replace(&files.demo, "$10000002$", "$10OOOOO2$");  // letters O, not zeros
  auto parsed = ReadAsciiQuarter(files, 2014, 1);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());
  EXPECT_NE(parsed.status().message().find("caseid"), std::string::npos);
  EXPECT_NE(parsed.status().message().find("DEMO14Q1.txt:3"),
            std::string::npos);
}

TEST(IngestPolicyTest, StrictOverflowingCaseidIsCorruption) {
  AsciiQuarterFiles files = CleanFiles();
  // One past UINT64_MAX.
  Replace(&files.demo, "$10000002$", "$18446744073709551616$");
  auto parsed = ReadAsciiQuarter(files, 2014, 1);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("DEMO14Q1.txt:3 (caseid)"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(IngestPolicyTest, StrictGarbageAgeIsCorruption) {
  AsciiQuarterFiles files = CleanFiles();
  Replace(&files.demo, "$41$", "$4I$");
  auto parsed = ReadAsciiQuarter(files, 2014, 1);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());
  EXPECT_NE(parsed.status().message().find("age"), std::string::npos);
}

// Ages are plain unsigned decimals. strtod would take each of these tokens,
// and a NaN or infinite age then slips past every range check downstream.
class NonDecimalAgeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(NonDecimalAgeTest, RejectedAsBadNumericAge) {
  AsciiQuarterFiles files = CleanFiles();
  Replace(&files.demo, "$41$", std::string("$") + GetParam() + "$");
  auto strict = ReadAsciiQuarter(files, 2014, 1);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsCorruption());
  EXPECT_NE(strict.status().message().find("DEMO14Q1.txt:3 (age)"),
            std::string::npos)
      << strict.status().ToString();

  IngestReport report;
  auto parsed = ReadAsciiQuarter(files, 2014, 1, Quarantine(), &report);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->reports.size(), 3u);
  ASSERT_EQ(RootFaultCount(report), 1u);
  ASSERT_FALSE(report.quarantined.empty());
  const QuarantinedRow& row = report.quarantined.front();
  EXPECT_EQ(row.fault, RowFault::kBadNumeric);
  EXPECT_EQ(row.column, "age");
  EXPECT_EQ(row.reason, std::string("unparseable age '") + GetParam() + "'");
}

INSTANTIATE_TEST_SUITE_P(
    Tokens, NonDecimalAgeTest,
    ::testing::Values("nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                      "0x29", "0x1p5", " 41", "41 ", "\t41", "+41", "-41",
                      "4e1", "41.", ".5", "4.1.1"));

TEST(IngestPolicyTest, PlainDecimalAgesAreAccepted) {
  for (const char* token : {"0", "41", "041", "41.5", "0.25"}) {
    AsciiQuarterFiles files = CleanFiles();
    Replace(&files.demo, "$41$", std::string("$") + token + "$");
    auto parsed = ReadAsciiQuarter(files, 2014, 1);
    ASSERT_TRUE(parsed.ok()) << token << ": " << parsed.status().ToString();
    EXPECT_DOUBLE_EQ(parsed->reports[1].age, std::stod(token)) << token;
  }
}

TEST(IngestPolicyTest, AgeOverflowingDoubleIsRejected) {
  AsciiQuarterFiles files = CleanFiles();
  Replace(&files.demo, "$41$", "$1" + std::string(400, '0') + "$");
  auto parsed = ReadAsciiQuarter(files, 2014, 1);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("(age)"), std::string::npos);
}

TEST(IngestPolicyTest, PermissiveSkipsBadRowAndKeepsTheRest) {
  AsciiQuarterFiles files = CleanFiles();
  Replace(&files.demo, "$10000002$", "$10OOOOO2$");
  IngestReport report;
  auto parsed = ReadAsciiQuarter(files, 2014, 1, Quarantine(), &report);
  ASSERT_TRUE(parsed.ok());
  // Report 2 is dropped; its DRUG/REAC rows are collateral, not faults.
  ASSERT_EQ(parsed->reports.size(), 3u);
  for (const Report& r : parsed->reports) {
    EXPECT_NE(r.case_id, 10000002u);
    EXPECT_EQ(r.drugs.size(), 2u);
    EXPECT_EQ(r.reactions.size(), 2u);
  }
  EXPECT_EQ(report.rows_rejected, 1u + 2u + 2u);
  EXPECT_EQ(report.collateral_rows, 2u + 2u);
  EXPECT_EQ(RootFaultCount(report), 1u);
  EXPECT_EQ(report.quarantined.size(), report.rows_rejected);
}

TEST(IngestPolicyTest, QuarantineCapturesRowDiagnostics) {
  AsciiQuarterFiles files = CleanFiles();
  Replace(&files.demo, "$10000002$", "$10OOOOO2$");
  IngestReport report;
  auto parsed = ReadAsciiQuarter(files, 2014, 1, Quarantine(), &report);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(report.quarantined.size(), 5u);
  const QuarantinedRow& root = report.quarantined[0];
  EXPECT_EQ(root.fault, RowFault::kBadNumeric);
  EXPECT_EQ(root.file, "DEMO14Q1.txt");
  EXPECT_EQ(root.line, 3u);
  EXPECT_EQ(root.column, "caseid");
  EXPECT_NE(root.reason.find("10OOOOO2"), std::string::npos);
  EXPECT_NE(root.content.find("10OOOOO2"), std::string::npos);
  EXPECT_EQ(CountFault(report, RowFault::kCollateral), 4u);
}

TEST(IngestPolicyTest, MalformedRowIsSkippedPermissively) {
  AsciiQuarterFiles files = CleanFiles();
  files.demo += "tail$without$enough$fields\n";
  IngestReport report;
  auto parsed = ReadAsciiQuarter(files, 2014, 1, Quarantine(), &report);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->reports.size(), 4u);
  EXPECT_EQ(RootFaultCount(report), 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].fault, RowFault::kMalformedRow);
  EXPECT_EQ(report.quarantined[0].line, 6u);
}

TEST(IngestPolicyTest, DuplicatePrimaryIdKeepsFirstOccurrence) {
  QuarterDataset dataset = SampleDataset();
  Report dup = dataset.reports[0];
  dup.drugs = {dataset.names.Intern("PHANTOM")};
  dataset.reports.push_back(dup);
  auto files = WriteAsciiQuarter(dataset);
  ASSERT_TRUE(files.ok());
  EXPECT_TRUE(ReadAsciiQuarter(*files, 2014, 1).status().IsCorruption());
  IngestReport report;
  auto parsed = ReadAsciiQuarter(*files, 2014, 1, Quarantine(), &report);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->reports.size(), 4u);
  // The first occurrence wins and even absorbs the duplicate's DRUG row
  // (same primaryid, so the join cannot tell them apart).
  EXPECT_EQ(parsed->reports[0].case_id, 10000001u);
  EXPECT_EQ(CountFault(report, RowFault::kDuplicatePrimaryId), 1u);
}

TEST(IngestPolicyTest, OrphanRowsAreQuarantined) {
  AsciiQuarterFiles files = CleanFiles();
  files.drug += "999999$9999$1$PS$MYSTERY\n";
  files.reac += "888888$8888$VERTIGO\n";
  IngestReport report;
  auto parsed = ReadAsciiQuarter(files, 2014, 1, Quarantine(), &report);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->reports.size(), 4u);
  EXPECT_EQ(CountFault(report, RowFault::kOrphanRow), 2u);
  EXPECT_EQ(report.quarantined[0].file, "DRUG14Q1.txt");
  EXPECT_EQ(report.quarantined[1].file, "REAC14Q1.txt");
}

TEST(IngestPolicyTest, ErrorBudgetAbortsTheQuarter) {
  AsciiQuarterFiles files = CleanFiles();
  Replace(&files.demo, "$10000002$", "$10OOOOO2$");
  IngestOptions tight = Quarantine();
  tight.max_bad_row_fraction = 0.01;  // 5 rejects of 20 rows >> 1%
  IngestReport report;
  auto parsed = ReadAsciiQuarter(files, 2014, 1, tight, &report);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());
  EXPECT_NE(parsed.status().message().find("error budget"),
            std::string::npos);
  // The accounting still reaches the caller for diagnosis.
  EXPECT_EQ(report.rows_rejected, 5u);
}

TEST(IngestPolicyTest, QuarantineCapIsRespected) {
  AsciiQuarterFiles files = CleanFiles();
  files.demo += "bad$row$one\nbad$row$two\nbad$row$three\n";
  IngestOptions options = Quarantine();
  options.max_quarantined_rows = 2;
  IngestReport report;
  auto parsed = ReadAsciiQuarter(files, 2014, 1, options, &report);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(report.rows_rejected, 3u);  // counters stay exact
  EXPECT_EQ(report.quarantined.size(), 2u);
  EXPECT_TRUE(report.quarantine_overflow);
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("cap"), std::string::npos);
}

TEST(IngestDirTest, MissingFileErrorNamesTheFile) {
  std::string dir = ::testing::TempDir();
  QuarterDataset dataset = SampleDataset();
  dataset.year = 2019;  // avoid clashing with other tests' 14Q1 files
  dataset.quarter = 3;
  ASSERT_TRUE(WriteAsciiQuarterToDir(dataset, dir).ok());
  std::remove((dir + "/REAC19Q3.txt").c_str());
  auto parsed = ReadAsciiQuarterFromDir(dir, 2019, 3);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsIOError());
  EXPECT_NE(parsed.status().message().find("REAC file"), std::string::npos);
  for (const char* name : {"DEMO19Q3.txt", "DRUG19Q3.txt"}) {
    std::remove((dir + "/" + name).c_str());
  }
}

TEST(IngestDirTest, WriteErrorNamesTheFile) {
  Status status =
      WriteAsciiQuarterToDir(SampleDataset(), "/nonexistent/ingest-dir");
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError());
  EXPECT_NE(status.message().find("DEMO14Q1.txt"), std::string::npos);
}

TEST(EnforceValidationTest, StrictFailsOnFirstError) {
  QuarterDataset dataset = SampleDataset();
  dataset.reports.push_back(dataset.reports[0]);  // duplicate primaryid
  ValidationReport validation = ValidateDataset(dataset);
  ASSERT_GT(validation.error_count(), 0u);
  Status status = EnforceValidation(validation, IngestOptions{});
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsFailedPrecondition());
  EXPECT_NE(status.message().find("duplicate-primaryid"), std::string::npos);
}

TEST(EnforceValidationTest, PermissiveDowngradesErrorsWithinBudget) {
  QuarterDataset dataset = SampleDataset();
  dataset.reports.push_back(dataset.reports[0]);
  ValidationReport validation = ValidateDataset(dataset);
  IngestReport report;
  EXPECT_TRUE(EnforceValidation(validation, Quarantine(), &report).ok());
  ASSERT_FALSE(report.warnings.empty());
  EXPECT_NE(report.warnings[0].find("duplicate-primaryid"),
            std::string::npos);
}

TEST(EnforceValidationTest, PermissiveStillFailsPastBudget) {
  QuarterDataset dataset = SampleDataset();
  for (int i = 0; i < 4; ++i) dataset.reports.push_back(dataset.reports[0]);
  ValidationReport validation = ValidateDataset(dataset);
  IngestOptions tight = Quarantine();
  tight.max_bad_row_fraction = 0.1;
  Status status = EnforceValidation(validation, tight);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsFailedPrecondition());
}

TEST(EnforceValidationTest, WarningsNeverFailAnyPolicy) {
  QuarterDataset dataset = SampleDataset();
  dataset.reports[0].drugs.clear();  // warning-grade finding
  ValidationReport validation = ValidateDataset(dataset);
  EXPECT_FALSE(validation.findings.empty());
  EXPECT_EQ(validation.error_count(), 0u);
  EXPECT_TRUE(EnforceValidation(validation, IngestOptions{}).ok());
  EXPECT_TRUE(EnforceValidation(validation, Quarantine()).ok());
}

TEST(IngestThreadingTest, PreprocessorRecordsDropAccounting) {
  QuarterDataset dataset = SampleDataset();
  dataset.reports[1].type = ReportType::kPeriodic;
  dataset.reports[2].reactions.clear();
  Preprocessor preprocessor{PreprocessOptions{}};
  IngestReport report;
  auto pre = preprocessor.Process(dataset, &report);
  ASSERT_TRUE(pre.ok());
  ASSERT_EQ(report.warnings.size(), 2u);
  EXPECT_NE(report.warnings[0].find("non-expedited"), std::string::npos);
  EXPECT_NE(report.warnings[1].find("no drugs or no reactions"),
            std::string::npos);
}

TEST(IngestReportTest, MergeAndSummary) {
  IngestReport a;
  a.rows_seen = 10;
  a.rows_rejected = 2;
  a.collateral_rows = 1;
  a.warnings = {"w1"};
  IngestReport b;
  b.rows_seen = 5;
  b.rows_rejected = 1;
  b.quarantined.push_back(QuarantinedRow{RowFault::kOrphanRow, "DRUG", 7, "",
                                         "orphan", "raw"});
  a.Merge(b);
  EXPECT_EQ(a.rows_seen, 15u);
  EXPECT_EQ(a.rows_rejected, 3u);
  EXPECT_EQ(RootFaultCount(a), 2u);
  EXPECT_EQ(a.quarantined.size(), 1u);
  EXPECT_EQ(a.warnings, (std::vector<std::string>{"w1"}));
  EXPECT_DOUBLE_EQ(a.rejected_fraction(), 0.2);
}

// ---------------------------------------------------------------------------
// The name arena: raw DRUG/REAC payloads become ids as their rows join.
// ---------------------------------------------------------------------------

const char kDemoHeader[] =
    "primaryid$caseid$caseversion$rept_cod$age$sex$occr_country\n";
const char kDrugHeader[] = "primaryid$caseid$drug_seq$role_cod$drugname\n";
const char kReacHeader[] = "primaryid$caseid$pt\n";

TEST(NameArenaIngestTest, ChildRowsInAnyOrderLandInTheirReportInRowOrder) {
  AsciiQuarterFiles files;
  files.demo = std::string(kDemoHeader) +
               "101$1$1$EXP$40$F$US\n"
               "201$2$1$EXP$41$M$US\n"
               "301$3$1$EXP$42$F$US\n";
  // Out of primaryid order and interleaved across reports.
  files.drug = std::string(kDrugHeader) +
               "301$3$1$PS$C1\n"
               "101$1$1$PS$A1\n"
               "301$3$2$SS$C2\n"
               "201$2$1$PS$B1\n"
               "101$1$2$SS$A2\n"
               "301$3$3$SS$C3\n";
  files.reac = std::string(kReacHeader) +
               "201$2$R1\n"
               "101$1$R2\n"
               "201$2$R3\n"
               "301$3$R4\n"
               "201$2$R5\n";
  auto parsed = ReadAsciiQuarter(files, 2014, 1);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->reports.size(), 3u);
  const auto names = [&](const std::vector<NameId>& ids) {
    return parsed->Names(ids);
  };
  using Names = std::vector<std::string>;
  EXPECT_EQ(names(parsed->reports[0].drugs), (Names{"A1", "A2"}));
  EXPECT_EQ(names(parsed->reports[1].drugs), (Names{"B1"}));
  EXPECT_EQ(names(parsed->reports[2].drugs), (Names{"C1", "C2", "C3"}));
  EXPECT_EQ(names(parsed->reports[0].reactions), (Names{"R2"}));
  EXPECT_EQ(names(parsed->reports[1].reactions), (Names{"R1", "R3", "R5"}));
  EXPECT_EQ(names(parsed->reports[2].reactions), (Names{"R4"}));
}

TEST(NameArenaIngestTest, RepeatedNamesShareOneDenseIdInFirstJoinedOrder) {
  AsciiQuarterFiles files;
  files.demo = std::string(kDemoHeader) +
               "101$1$1$EXP$40$F$US\n"
               "201$2$1$EXP$41$M$US\n";
  files.drug = std::string(kDrugHeader) +
               "201$2$1$PS$WARFARIN\n"
               "101$1$1$PS$ASPIRIN\n"
               "101$1$2$SS$WARFARIN\n"
               "201$2$2$SS$ASPIRIN\n";
  // NAUSEA repeats; ASPIRIN, already a drug name, is reused as a term.
  files.reac = std::string(kReacHeader) +
               "101$1$NAUSEA\n"
               "201$2$NAUSEA\n"
               "201$2$ASPIRIN\n";
  auto parsed = ReadAsciiQuarter(files, 2014, 1);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->names.size(), 3u);
  EXPECT_EQ(parsed->Name(0), "WARFARIN");
  EXPECT_EQ(parsed->Name(1), "ASPIRIN");
  EXPECT_EQ(parsed->Name(2), "NAUSEA");
  EXPECT_EQ(parsed->reports[0].drugs, (std::vector<NameId>{1, 0}));
  EXPECT_EQ(parsed->reports[1].drugs, (std::vector<NameId>{0, 1}));
  EXPECT_EQ(parsed->reports[0].reactions, (std::vector<NameId>{2}));
  EXPECT_EQ(parsed->reports[1].reactions, (std::vector<NameId>{2, 1}));
}

TEST(NameArenaIngestTest, OrphanAndCollateralRowsNeverEnterTheArena) {
  AsciiQuarterFiles files;
  files.demo = std::string(kDemoHeader) +
               "101$1$1$EXP$40$F$US\n"
               "201$x$1$EXP$41$M$US\n";  // rejected: its children are collateral
  files.drug = std::string(kDrugHeader) +
               "101$1$1$PS$ASPIRIN\n"
               "201$2$1$PS$COLLATERAL DRUG\n"
               "999$9$1$PS$ORPHAN DRUG\n";
  files.reac = std::string(kReacHeader) +
               "201$2$COLLATERAL TERM\n"
               "101$1$NAUSEA\n"
               "999$9$ORPHAN TERM\n";
  IngestOptions options = Quarantine();
  options.max_bad_row_fraction = 1.0;
  IngestReport report;
  auto parsed = ReadAsciiQuarter(files, 2014, 1, options, &report);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(CountFault(report, RowFault::kCollateral), 2u);
  EXPECT_EQ(CountFault(report, RowFault::kOrphanRow), 2u);
  ASSERT_EQ(parsed->names.size(), 2u);
  EXPECT_EQ(parsed->Name(0), "ASPIRIN");
  EXPECT_EQ(parsed->Name(1), "NAUSEA");
}

TEST(NameArenaTest, InternsAcrossRehashesAndKeepsEveryId) {
  NameArena arena;
  EXPECT_EQ(arena.size(), 0u);
  std::vector<std::string> names;
  for (int i = 0; i < 1000; ++i) names.push_back("NAME" + std::to_string(i));
  names.push_back("");  // the empty name is a name like any other
  const std::vector<NameId> ids = arena.InternAll(names);
  ASSERT_EQ(arena.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<NameId>(i));
    EXPECT_EQ(arena.Name(ids[i]), names[i]);
    EXPECT_EQ(arena.Intern(names[i]), ids[i]);
  }
  EXPECT_EQ(arena.size(), names.size());
  // A copy is self-contained.
  NameArena copy = arena;
  arena = NameArena();
  EXPECT_EQ(copy.Name(500), "NAME500");
  EXPECT_EQ(copy.Intern("NAME999"), 999u);
}

TEST(NameArenaTest, TryInternRefusesANewNamePastTheCap) {
  NameArena arena(8);
  NameId id = 99;
  ASSERT_TRUE(arena.TryIntern("ABCDE", &id));
  EXPECT_EQ(id, 0u);
  // A new name that would take the arena to 9 bytes adds nothing.
  EXPECT_FALSE(arena.TryIntern("WXYZ", &id));
  EXPECT_EQ(arena.size(), 1u);
  // A known name needs no room; a new one that fills the cap exactly fits.
  ASSERT_TRUE(arena.TryIntern("ABCDE", &id));
  EXPECT_EQ(id, 0u);
  ASSERT_TRUE(arena.TryIntern("XYZ", &id));
  EXPECT_EQ(id, 1u);
  EXPECT_FALSE(arena.TryIntern("Q", &id));
  ASSERT_TRUE(arena.TryIntern("", &id));  // the empty name always fits
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(arena.Name(1), "XYZ");
}

}  // namespace
}  // namespace maras::faers
