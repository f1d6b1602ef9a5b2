#include "faers/ascii_format.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "util/random.h"

namespace maras::faers {
namespace {

QuarterDataset SampleDataset() {
  QuarterDataset dataset;
  dataset.year = 2014;
  dataset.quarter = 1;
  Report r1;
  r1.case_id = 10000001;
  r1.case_version = 1;
  r1.type = ReportType::kExpedited;
  r1.sex = Sex::kFemale;
  r1.age = 63;
  r1.country = "US";
  r1.drugs = dataset.names.InternAll({"ASPIRIN", "WARFARIN"});
  r1.reactions = dataset.names.InternAll({"HAEMORRHAGE"});
  Report r2;
  r2.case_id = 10000002;
  r2.case_version = 2;
  r2.type = ReportType::kPeriodic;
  r2.sex = Sex::kMale;
  r2.age = -1;  // unreported
  r2.country = "GB";
  r2.drugs = dataset.names.InternAll({"NEXIUM"});
  r2.reactions = dataset.names.InternAll({"OSTEOPOROSIS", "NAUSEA"});
  dataset.reports = {r1, r2};
  return dataset;
}

TEST(AsciiFormatTest, RoundTrip) {
  QuarterDataset original = SampleDataset();
  auto files = WriteAsciiQuarter(original);
  ASSERT_TRUE(files.ok());
  auto parsed = ReadAsciiQuarter(*files, 2014, 1);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->reports.size(), 2u);
  const Report& r1 = parsed->reports[0];
  EXPECT_EQ(r1.case_id, 10000001u);
  EXPECT_EQ(r1.case_version, 1u);
  EXPECT_EQ(r1.type, ReportType::kExpedited);
  EXPECT_EQ(r1.sex, Sex::kFemale);
  EXPECT_DOUBLE_EQ(r1.age, 63.0);
  EXPECT_EQ(r1.country, "US");
  EXPECT_EQ(parsed->Names(r1.drugs),
            (std::vector<std::string>{"ASPIRIN", "WARFARIN"}));
  EXPECT_EQ(parsed->Names(r1.reactions),
            (std::vector<std::string>{"HAEMORRHAGE"}));
  const Report& r2 = parsed->reports[1];
  EXPECT_EQ(r2.case_version, 2u);
  EXPECT_LT(r2.age, 0.0);
  EXPECT_EQ(r2.reactions.size(), 2u);
}

TEST(AsciiFormatTest, HeaderColumnsMatchFaersLayout) {
  auto files = WriteAsciiQuarter(SampleDataset());
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->demo.substr(0, files->demo.find('\n')),
            "primaryid$caseid$caseversion$rept_cod$age$sex$occr_country");
  EXPECT_EQ(files->drug.substr(0, files->drug.find('\n')),
            "primaryid$caseid$drug_seq$role_cod$drugname");
  EXPECT_EQ(files->reac.substr(0, files->reac.find('\n')),
            "primaryid$caseid$pt");
}

TEST(AsciiFormatTest, PrimaryIdEncodesCaseAndVersion) {
  Report r;
  r.case_id = 123;
  r.case_version = 4;
  EXPECT_EQ(r.primary_id(), 12304u);
}

TEST(AsciiFormatTest, OrphanDrugRowIsCorruption) {
  auto files = WriteAsciiQuarter(SampleDataset());
  ASSERT_TRUE(files.ok());
  files->drug += "999999$9999$1$PS$MYSTERY\n";
  EXPECT_TRUE(ReadAsciiQuarter(*files, 2014, 1).status().IsCorruption());
}

TEST(AsciiFormatTest, OrphanReacRowIsCorruption) {
  auto files = WriteAsciiQuarter(SampleDataset());
  ASSERT_TRUE(files.ok());
  files->reac += "999999$9999$NAUSEA\n";
  EXPECT_TRUE(ReadAsciiQuarter(*files, 2014, 1).status().IsCorruption());
}

TEST(AsciiFormatTest, DuplicatePrimaryIdIsCorruption) {
  QuarterDataset dataset = SampleDataset();
  dataset.reports.push_back(dataset.reports[0]);
  auto files = WriteAsciiQuarter(dataset);
  ASSERT_TRUE(files.ok());
  EXPECT_TRUE(ReadAsciiQuarter(*files, 2014, 1).status().IsCorruption());
}

TEST(AsciiFormatTest, BadReportTypeIsCorruption) {
  auto files = WriteAsciiQuarter(SampleDataset());
  ASSERT_TRUE(files.ok());
  size_t pos = files->demo.find("EXP");
  ASSERT_NE(pos, std::string::npos);
  files->demo.replace(pos, 3, "XXX");
  EXPECT_TRUE(ReadAsciiQuarter(*files, 2014, 1).status().IsCorruption());
}

TEST(AsciiFormatTest, DirectoryRoundTrip) {
  std::string dir = ::testing::TempDir();
  QuarterDataset original = SampleDataset();
  ASSERT_TRUE(WriteAsciiQuarterToDir(original, dir).ok());
  auto parsed = ReadAsciiQuarterFromDir(dir, 2014, 1);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->reports.size(), original.reports.size());
  for (const char* name : {"DEMO14Q1.txt", "DRUG14Q1.txt", "REAC14Q1.txt"}) {
    std::remove((dir + "/" + name).c_str());
  }
}

TEST(AsciiFuzzTest, MutatedFilesNeverCrash) {
  auto files = WriteAsciiQuarter(SampleDataset());
  ASSERT_TRUE(files.ok());
  maras::Rng rng(73);
  for (int trial = 0; trial < 300; ++trial) {
    AsciiQuarterFiles mutated = *files;
    std::string* victim = trial % 3 == 0   ? &mutated.demo
                          : trial % 3 == 1 ? &mutated.drug
                                           : &mutated.reac;
    for (int e = 0; e < 3; ++e) {
      size_t pos = rng.Uniform(victim->size());
      switch (rng.Uniform(3)) {
        case 0:
          (*victim)[pos] = static_cast<char>(32 + rng.Uniform(95));
          break;
        case 1:
          victim->erase(pos, 1);
          break;
        default:
          victim->insert(pos, 1, '$');
          break;
      }
      // assign(1, 'x') instead of = "x": GCC 12's -Wrestrict false-positives
      // (PR105651) on the inlined const char* replace path.
      if (victim->empty()) victim->assign(1, 'x');
    }
    auto parsed = ReadAsciiQuarter(mutated, 2014, 1);  // must not crash
    (void)parsed;
  }
}

TEST(ReportCodesTest, RoundTrip) {
  for (ReportType t :
       {ReportType::kExpedited, ReportType::kPeriodic, ReportType::kDirect}) {
    ReportType parsed;
    ASSERT_TRUE(ParseReportType(ReportTypeCode(t), &parsed));
    EXPECT_EQ(parsed, t);
  }
  ReportType dummy;
  EXPECT_FALSE(ParseReportType("BOGUS", &dummy));
  for (Sex s : {Sex::kFemale, Sex::kMale, Sex::kUnknown}) {
    Sex parsed;
    ASSERT_TRUE(ParseSex(SexCode(s), &parsed));
    EXPECT_EQ(parsed, s);
  }
}

}  // namespace
}  // namespace maras::faers
