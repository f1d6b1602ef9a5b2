#include "faers/validate.h"

#include <gtest/gtest.h>

#include "faers/generator.h"

namespace maras::faers {
namespace {

Report GoodReport(uint64_t case_id) {
  Report r;
  r.case_id = case_id;
  r.case_version = 1;
  r.age = 50;
  r.country = "US";
  r.drugs = {"ASPIRIN"};
  r.reactions = {"NAUSEA"};
  return r;
}

bool HasFinding(const ValidationReport& report, const std::string& check) {
  for (const auto& finding : report.findings) {
    if (finding.check == check) return true;
  }
  return false;
}

TEST(ValidateTest, CleanDatasetPasses) {
  QuarterDataset dataset;
  dataset.quarter = 1;
  dataset.reports = {GoodReport(1), GoodReport(2)};
  ValidationReport report = ValidateDataset(dataset);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.findings.size(), 0u);
  EXPECT_EQ(report.reports_checked, 2u);
}

TEST(ValidateTest, DuplicatePrimaryIdIsError) {
  QuarterDataset dataset;
  dataset.quarter = 1;
  dataset.reports = {GoodReport(1), GoodReport(1)};
  ValidationReport report = ValidateDataset(dataset);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasFinding(report, "duplicate-primaryid"));
}

TEST(ValidateTest, VersionedResubmissionIsFine) {
  QuarterDataset dataset;
  dataset.quarter = 1;
  Report v1 = GoodReport(1);
  Report v2 = GoodReport(1);
  v2.case_version = 2;
  dataset.reports = {v1, v2};
  EXPECT_TRUE(ValidateDataset(dataset).ok());
}

TEST(ValidateTest, StructuralErrors) {
  QuarterDataset dataset;
  dataset.quarter = 5;  // bad quarter
  Report r = GoodReport(0);  // missing case id
  r.case_version = 0;        // bad version
  dataset.reports = {r};
  ValidationReport report = ValidateDataset(dataset);
  EXPECT_TRUE(HasFinding(report, "bad-quarter"));
  EXPECT_TRUE(HasFinding(report, "missing-caseid"));
  EXPECT_TRUE(HasFinding(report, "bad-caseversion"));
  EXPECT_GE(report.error_count(), 3u);
}

TEST(ValidateTest, ContentWarnings) {
  QuarterDataset dataset;
  dataset.quarter = 2;
  Report no_drugs = GoodReport(1);
  no_drugs.drugs.clear();
  Report no_reactions = GoodReport(2);
  no_reactions.reactions.clear();
  Report ancient = GoodReport(3);
  ancient.age = 240;  // data-entry artifact
  Report bad_country = GoodReport(4);
  bad_country.country = "usa";
  Report blank_names = GoodReport(5);
  blank_names.drugs = {""};
  blank_names.reactions = {""};
  dataset.reports = {no_drugs, no_reactions, ancient, bad_country,
                     blank_names};
  ValidationReport report = ValidateDataset(dataset);
  EXPECT_TRUE(report.ok());  // warnings only
  EXPECT_TRUE(HasFinding(report, "no-drugs"));
  EXPECT_TRUE(HasFinding(report, "no-reactions"));
  EXPECT_TRUE(HasFinding(report, "implausible-age"));
  EXPECT_TRUE(HasFinding(report, "bad-country-code"));
  EXPECT_TRUE(HasFinding(report, "empty-drug-name"));
  EXPECT_TRUE(HasFinding(report, "empty-reaction"));
  EXPECT_EQ(report.warning_count(), 6u);
}

TEST(ValidateTest, ImplausibleAgeMessageIsDefinedForAnyAge) {
  // 1e13 parses as a plain decimal but is far outside int range; the
  // message must not cast it to int.
  for (const auto& [age, text] :
       std::vector<std::pair<double, std::string>>{
           {240.7, "age 240 exceeds 120"}, {1e13, "age 1e+13 exceeds 120"}}) {
    QuarterDataset dataset;
    dataset.quarter = 1;
    Report r = GoodReport(1);
    r.age = age;
    dataset.reports = {r};
    ValidationReport report = ValidateDataset(dataset);
    bool found = false;
    for (const ValidationFinding& finding : report.findings) {
      if (finding.check == "implausible-age") {
        EXPECT_EQ(finding.detail, text);
        found = true;
      }
    }
    EXPECT_TRUE(found) << text;
  }
}

TEST(ValidateTest, TooManyDrugsFlagged) {
  QuarterDataset dataset;
  dataset.quarter = 1;
  Report r = GoodReport(1);
  r.drugs.assign(100, "ASPIRIN");
  dataset.reports = {r};
  ValidationOptions options;
  options.max_plausible_drugs = 60;
  ValidationReport report = ValidateDataset(dataset, options);
  EXPECT_TRUE(HasFinding(report, "too-many-drugs"));
}

TEST(ValidateTest, CountryCheckCanBeDisabled) {
  QuarterDataset dataset;
  dataset.quarter = 1;
  Report r = GoodReport(1);
  r.country = "xx";
  dataset.reports = {r};
  ValidationOptions options;
  options.check_country_codes = false;
  EXPECT_EQ(ValidateDataset(dataset, options).findings.size(), 0u);
}

TEST(ValidateTest, ConflictingVersionIsError) {
  QuarterDataset dataset;
  dataset.quarter = 1;
  Report a = GoodReport(7);
  a.case_version = 2;
  Report b = GoodReport(7);
  b.case_version = 2;
  dataset.reports = {a, b};
  ValidationReport report = ValidateDataset(dataset);
  EXPECT_TRUE(HasFinding(report, "conflicting-version"));
}

TEST(ValidateTest, SyntheticGeneratorOutputIsClean) {
  GeneratorConfig config;
  config.n_reports = 1500;
  config.n_drugs = 300;
  config.n_adrs = 150;
  SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  ASSERT_TRUE(dataset.ok());
  ValidationReport report = ValidateDataset(*dataset);
  EXPECT_TRUE(report.ok()) << report.error_count() << " errors";
  EXPECT_EQ(report.warning_count(), 0u);
}

}  // namespace
}  // namespace maras::faers
