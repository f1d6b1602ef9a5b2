// Golden hashes of the cleaned corpus and of the quarantine output. Every
// byte ReadAsciiQuarter -> Preprocessor::Process produces for a few
// generator seeds, and every diagnostic the reader emits for corrupted
// input, is serialized and hashed. The expected values were captured with
// the table-materializing reader and the per-mention cleaner, so any
// rewrite of the ingest or cleaning path must reproduce them exactly.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "faers/ascii_format.h"
#include "faers/corruptor.h"
#include "faers/generator.h"
#include "faers/preprocess.h"

namespace maras::faers {
namespace {

// Appends `value` and a field terminator, so adjacent fields never blur.
class Canon {
 public:
  Canon& Add(std::string_view value) {
    out_.append(value);
    out_.push_back('\x1f');
    return *this;
  }
  Canon& Add(uint64_t value) { return Add(std::to_string(value)); }
  Canon& Add(double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Add(std::string_view(buf));
  }
  Canon& End() {
    out_.push_back('\n');
    return *this;
  }
  uint64_t Hash() const { return core::Fnv1a64(out_); }

 private:
  std::string out_;
};

void CanonDataset(const QuarterDataset& dataset, Canon* c) {
  c->Add(static_cast<uint64_t>(dataset.year))
      .Add(static_cast<uint64_t>(dataset.quarter))
      .Add(static_cast<uint64_t>(dataset.reports.size()))
      .End();
  for (const Report& r : dataset.reports) {
    c->Add(r.case_id)
        .Add(static_cast<uint64_t>(r.case_version))
        .Add(static_cast<uint64_t>(r.type))
        .Add(static_cast<uint64_t>(r.sex))
        .Add(r.age)
        .Add(r.country);
    for (const std::string& drug : r.drugs) c->Add(drug);
    c->Add("|");
    for (const std::string& pt : r.reactions) c->Add(pt);
    c->End();
  }
}

void CanonPrepared(const PreprocessResult& result, Canon* c) {
  for (mining::ItemId id = 0; id < result.items.size(); ++id) {
    c->Add(result.items.Name(id))
        .Add(static_cast<uint64_t>(result.items.Domain(id)))
        .End();
  }
  for (const mining::Itemset& t : result.transactions.transactions()) {
    for (mining::ItemId id : t) c->Add(static_cast<uint64_t>(id));
    c->End();
  }
  for (size_t i = 0; i < result.primary_ids.size(); ++i) {
    c->Add(result.primary_ids[i])
        .Add(static_cast<uint64_t>(result.demographics[i].sex))
        .Add(result.demographics[i].age)
        .End();
  }
  const PreprocessStats& s = result.stats;
  for (size_t v : {s.reports_in, s.reports_kept, s.dropped_not_expedited,
                   s.dropped_stale_version, s.dropped_empty, s.distinct_drugs,
                   s.distinct_adrs, s.drug_mentions, s.adr_mentions,
                   s.fuzzy_corrections, s.alias_resolutions}) {
    c->Add(static_cast<uint64_t>(v));
  }
  c->End();
}

void CanonReport(const IngestReport& report, Canon* c) {
  c->Add(static_cast<uint64_t>(report.rows_seen))
      .Add(static_cast<uint64_t>(report.rows_rejected))
      .Add(static_cast<uint64_t>(report.collateral_rows))
      .Add(static_cast<uint64_t>(report.reports_ingested))
      .Add(static_cast<uint64_t>(report.quarantine_overflow))
      .End();
  for (const QuarantinedRow& row : report.quarantined) {
    c->Add(static_cast<uint64_t>(row.fault))
        .Add(row.file)
        .Add(static_cast<uint64_t>(row.line))
        .Add(row.column)
        .Add(row.reason)
        .Add(row.content)
        .End();
  }
  for (const std::string& warning : report.warnings) c->Add(warning);
  c->End();
}

QuarterDataset Generate(uint64_t seed, size_t reports) {
  GeneratorConfig config;
  config.seed = seed;
  config.n_reports = reports;
  config.n_drugs = 400;
  config.n_adrs = 150;
  // Dirtier than the default so the fuzzy and alias paths fire often.
  config.misspelling_rate = 0.05;
  config.dose_decoration_rate = 0.2;
  auto dataset = SyntheticGenerator(config).Generate();
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return *std::move(dataset);
}

std::string ToCrLf(const std::string& text) {
  std::string out;
  for (char ch : text) {
    if (ch == '\n') out.push_back('\r');
    out.push_back(ch);
  }
  return out;
}

// Strict status, then the quarantine-mode dataset, accounting and cleaned
// corpus of one input.
void CanonIngest(const AsciiQuarterFiles& files, size_t quarantine_cap,
                 Canon* c) {
  c->Add(ReadAsciiQuarter(files, 2017, 2).status().ToString()).End();
  IngestOptions options;
  options.policy = IngestPolicy::kQuarantine;
  options.max_bad_row_fraction = 0.5;
  options.max_quarantined_rows = quarantine_cap;
  IngestReport report;
  auto dataset = ReadAsciiQuarter(files, 2017, 2, options, &report);
  CanonReport(report, c);
  c->Add(dataset.status().ToString()).End();
  if (!dataset.ok()) return;
  CanonDataset(*dataset, c);
  auto prepared = Preprocessor(PreprocessOptions{}).Process(*dataset);
  c->Add(prepared.status().ToString()).End();
  if (prepared.ok()) CanonPrepared(*prepared, c);
}

std::string Hex(uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
  return buf;
}

TEST(GoldenCorpusTest, CleanedCorpusIsByteIdentical) {
  const struct {
    uint64_t seed;
    size_t reports;
    const char* hash;
  } cases[] = {
      {1, 1500, "d8075c28a50c2a64"},
      {2, 2500, "caf681538e539d44"},
      {3, 4000, "ae71545f8afbe006"},
  };
  for (const auto& tc : cases) {
    QuarterDataset generated = Generate(tc.seed, tc.reports);
    auto files = WriteAsciiQuarter(generated);
    ASSERT_TRUE(files.ok());
    auto dataset = ReadAsciiQuarter(*files, generated.year, generated.quarter);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    IngestReport report;
    auto prepared =
        Preprocessor(PreprocessOptions{}).Process(*dataset, &report);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    Canon c;
    CanonDataset(*dataset, &c);
    CanonPrepared(*prepared, &c);
    CanonReport(report, &c);
    EXPECT_EQ(Hex(c.Hash()), tc.hash) << "seed " << tc.seed;
  }
}

TEST(GoldenCorpusTest, QuarantineOutputIsByteIdentical) {
  const struct {
    uint64_t seed;
    const char* hash;
  } cases[] = {
      {1, "39afab285706caca"},
      {2, "718c96cf8f53fe65"},
      {3, "4e7e40a5c488bb9d"},
  };
  for (const auto& tc : cases) {
    QuarterDataset generated = Generate(tc.seed + 100, 600);
    auto clean = WriteAsciiQuarter(generated);
    ASSERT_TRUE(clean.ok());
    CorruptorConfig config;
    config.seed = tc.seed;
    config.faults = AllRowFaults(2);
    auto corrupted = Corruptor(config).Corrupt(*clean, 2017, 2);
    ASSERT_TRUE(corrupted.ok()) << corrupted.status().ToString();
    const AsciiQuarterFiles& lf = corrupted->files;
    const AsciiQuarterFiles crlf{ToCrLf(lf.demo), ToCrLf(lf.drug),
                                 ToCrLf(lf.reac)};
    Canon c;
    CanonIngest(lf, 10000, &c);
    CanonIngest(crlf, 10000, &c);
    // A small capture cap pins which rejected rows are kept, i.e. the
    // order in which the reader reports them.
    CanonIngest(lf, 5, &c);
    EXPECT_EQ(Hex(c.Hash()), tc.hash) << "seed " << tc.seed;
  }
}

// Hand-built inputs for the reader's error paths and their precedence:
// which fault a strict read reports when several tables are damaged, and
// how a missing or blank header is diagnosed.
TEST(GoldenCorpusTest, ReaderEdgeCasesAreByteIdentical) {
  const std::string demo_header =
      "primaryid$caseid$caseversion$rept_cod$age$sex$occr_country\n";
  const std::string drug_header =
      "primaryid$caseid$drug_seq$role_cod$drugname\n";
  const std::string reac_header = "primaryid$caseid$pt\n";
  const std::string demo_ok = demo_header +
                              "101$1$1$EXP$40$F$US\n"
                              "201$2$1$EXP$$M$GB\n";
  const std::string drug_ok = drug_header +
                              "101$1$1$PS$ASPIRIN\n"
                              "201$2$1$PS$WARFARIN 5MG\n";
  const std::string reac_ok = reac_header +
                              "101$1$NAUSEA\n"
                              "201$2$BLEEDING\n";
  const std::vector<AsciiQuarterFiles> inputs = {
      {demo_ok, drug_ok, reac_ok},
      // A row fault in DEMO and a width fault in REAC.
      {demo_ok + "301$x$1$EXP$1$F$US\n", drug_ok, reac_ok + "101$1\n"},
      // A width fault after a row fault within one table.
      {demo_ok + "301$3$1$BAD$1$F$US\n401$4\n", drug_ok, reac_ok},
      // DEMO lacks a required column while DRUG has a width fault.
      {"primaryid$caseid$caseversion\n101$1$1\n", drug_ok + "1$2\n", reac_ok},
      // Blank first line: no header at all.
      {"\n" + demo_ok, drug_ok, reac_ok},
      {demo_header, drug_ok, reac_ok},
      {"", drug_ok, reac_ok},
      // Orphan and collateral children, a duplicate and an unparseable
      // child primaryid.
      {demo_ok + "501$5$1$EXP$1$Q$US\n101$1$1$EXP$40$F$US\n",
       drug_ok + "501$5$1$PS$X\n999$9$1$PS$Y\nzz$9$1$PS$Z\n",
       reac_ok + "501$5$R\n"},
      // Only the payload columns, in another order, with blank lines.
      {demo_ok, "drugname$primaryid\n\nASPIRIN$101\n\n", "pt$primaryid\n"},
  };
  Canon c;
  for (const AsciiQuarterFiles& files : inputs) {
    CanonIngest(files, 10000, &c);
    CanonIngest({ToCrLf(files.demo), ToCrLf(files.drug), ToCrLf(files.reac)},
                10000, &c);
  }
  EXPECT_EQ(Hex(c.Hash()), "38cc6edd03b5c59b");
}

}  // namespace
}  // namespace maras::faers
