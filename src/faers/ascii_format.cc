#include "faers/ascii_format.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <string_view>
#include <unordered_map>

#include "util/delimited.h"
#include "util/string_util.h"

namespace maras::faers {

namespace {

constexpr char kDelim = '$';

std::string FileSuffix(int year, int quarter) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02dQ%d", year % 100, quarter);
  return buf;
}

std::string FormatAge(double age) {
  if (age < 0) return "";
  return maras::FormatDouble(age, 0);
}

// ---------------------------------------------------------------------------
// Validated numeric parsing. strtoull("12ab", ...) silently stops at 'a' and
// strtoull("garbage", ...) coerces to 0; FAERS identifiers are plain decimal,
// so anything else is a row-level fault that must surface as a diagnostic,
// not a primaryid of 0.
// ---------------------------------------------------------------------------

bool AllDigits(std::string_view text) {
  return !text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
    return c >= '0' && c <= '9';
  });
}

bool ParseUint64Field(std::string_view field, uint64_t* out) {
  // from_chars fails on overflow and leaves *out untouched.
  return AllDigits(field) &&
         std::from_chars(field.data(), field.data() + field.size(), *out)
                 .ec == std::errc();
}

bool ParseUint32Field(std::string_view field, uint32_t* out) {
  uint64_t wide = 0;
  if (!ParseUint64Field(field, &wide) || wide > 0xFFFFFFFFull) return false;
  *out = static_cast<uint32_t>(wide);
  return true;
}

// Ages are plain unsigned decimals ("42", "0.5"). strtod alone would also
// take "nan", "inf", hex floats and leading whitespace; a NaN age passes
// every range check and an infinite one overflows an int conversion.
bool ParseAgeField(std::string_view field, double* out) {
  const size_t point = field.find('.');
  const bool has_fraction = point != std::string_view::npos;
  if (!AllDigits(field.substr(0, point)) ||
      (has_fraction && !AllDigits(field.substr(point + 1)))) {
    return false;
  }
  const std::string text(field);
  errno = 0;
  const double value = std::strtod(text.c_str(), nullptr);
  if (errno == ERANGE || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

// Best-effort primaryid of a malformed line: its first '$'-field, when that
// still parses. Lets quarantine mode classify the row's DRUG/REAC children
// as collateral of the rejected DEMO row rather than as orphans.
bool PrimaryIdPrefix(std::string_view line, uint64_t* out) {
  return ParseUint64Field(line.substr(0, line.find(kDelim)), out);
}

// Index of `column` in a header row, or -1 when absent.
int ColumnIndex(const maras::DelimitedRow& header, std::string_view column) {
  for (size_t i = 0; i < header.fields.size(); ++i) {
    if (header.fields[i] == column) return static_cast<int>(i);
  }
  return -1;
}

// One table of a quarter, read in a single streaming pass. Faults are
// collected during the pass and recorded afterwards by Replay(), so the
// accounting keeps the order of a read that parses every table before it
// interprets any row (see ReadAsciiQuarter).
struct TableIngest {
  TableIngest(const IngestOptions* options_in, IngestReport* report_in,
              std::string file_in)
      : options(options_in),
        report(report_in),
        file(std::move(file_in)),
        strict(options_in->policy == IngestPolicy::kStrict) {}

  const IngestOptions* options;
  IngestReport* report;  // never null inside ReadAsciiQuarter
  std::string file;      // e.g. "DEMO14Q1.txt"
  bool strict;
  // Corruption when the header lacks a column the reader needs; rows are
  // then not interpreted.
  maras::Status columns;
  size_t rows = 0;  // rows of the header's width
  std::vector<maras::DelimitedRowIssue> issues;  // rows of another width
  std::vector<QuarantinedRow> rejected;          // faults found in rows

  // Queues one rejected row. Its verbatim content is copied only here.
  void Reject(RowFault fault, const maras::DelimitedRow& row,
              std::string column, std::string reason) {
    rejected.push_back(QuarantinedRow{fault, file, row.line,
                                      std::move(column), std::move(reason),
                                      std::string(row.text)});
  }

  // Records one rejected row. Returns the strict-mode status (Corruption
  // with file:line context) the caller must propagate when `strict`.
  maras::Status Record(QuarantinedRow row) {
    if (strict) {
      return maras::WithContext(
          maras::Status::Corruption(row.reason),
          file + ":" + std::to_string(row.line) +
              (row.column.empty() ? "" : " (" + row.column + ")"));
    }
    ++report->rows_rejected;
    if (row.fault == RowFault::kCollateral) ++report->collateral_rows;
    report->Quarantine(*options, std::move(row));
    return maras::Status::OK();
  }

  // Records the table's faults: a missing column, then the wrong-width
  // rows, then the rows rejected while being interpreted, each in line
  // order. `width_fault` classifies a wrong-width row by its text.
  maras::Status Replay(
      const std::function<RowFault(std::string_view)>& width_fault) {
    MARAS_RETURN_IF_ERROR(columns);
    report->rows_seen += rows + issues.size();
    for (maras::DelimitedRowIssue& issue : issues) {
      MARAS_RETURN_IF_ERROR(Record(
          QuarantinedRow{width_fault(issue.content), file, issue.line, "",
                         std::move(issue.reason), std::move(issue.content)}));
    }
    for (QuarantinedRow& row : rejected) {
      MARAS_RETURN_IF_ERROR(Record(std::move(row)));
    }
    return maras::Status::OK();
  }
};

}  // namespace

maras::StatusOr<AsciiQuarterFiles> WriteAsciiQuarter(
    const QuarterDataset& dataset) {
  maras::DelimitedTable demo;
  demo.header = {"primaryid", "caseid",      "caseversion", "rept_cod",
                 "age",       "sex",         "occr_country"};
  maras::DelimitedTable drug;
  drug.header = {"primaryid", "caseid", "drug_seq", "role_cod", "drugname"};
  maras::DelimitedTable reac;
  reac.header = {"primaryid", "caseid", "pt"};

  for (const Report& r : dataset.reports) {
    std::string primary = std::to_string(r.primary_id());
    std::string caseid = std::to_string(r.case_id);
    demo.rows.push_back({primary, caseid, std::to_string(r.case_version),
                         ReportTypeCode(r.type), FormatAge(r.age),
                         SexCode(r.sex), r.country});
    int seq = 1;
    for (NameId name : r.drugs) {
      // role_cod: PS (primary suspect) for the first drug, SS thereafter —
      // matching FAERS conventions; MARAS treats all roles equally.
      drug.rows.push_back({primary, caseid, std::to_string(seq),
                           seq == 1 ? "PS" : "SS",
                           std::string(dataset.Name(name))});
      ++seq;
    }
    for (NameId pt : r.reactions) {
      reac.rows.push_back({primary, caseid, std::string(dataset.Name(pt))});
    }
  }

  maras::DelimitedWriter writer(kDelim);
  AsciiQuarterFiles files;
  MARAS_ASSIGN_OR_RETURN(files.demo, writer.ToString(demo));
  MARAS_ASSIGN_OR_RETURN(files.drug, writer.ToString(drug));
  MARAS_ASSIGN_OR_RETURN(files.reac, writer.ToString(reac));
  return files;
}

maras::Status WriteAsciiQuarterToDir(const QuarterDataset& dataset,
                                     const std::string& directory) {
  MARAS_ASSIGN_OR_RETURN(AsciiQuarterFiles files, WriteAsciiQuarter(dataset));
  std::string suffix = FileSuffix(dataset.year, dataset.quarter);
  std::string demo_path = directory + "/DEMO" + suffix + ".txt";
  std::string drug_path = directory + "/DRUG" + suffix + ".txt";
  std::string reac_path = directory + "/REAC" + suffix + ".txt";
  MARAS_RETURN_IF_ERROR_CTX(maras::AtomicWriteStringToFile(demo_path, files.demo),
                            demo_path);
  MARAS_RETURN_IF_ERROR_CTX(maras::AtomicWriteStringToFile(drug_path, files.drug),
                            drug_path);
  MARAS_RETURN_IF_ERROR_CTX(maras::AtomicWriteStringToFile(reac_path, files.reac),
                            reac_path);
  return maras::Status::OK();
}

maras::StatusOr<QuarterDataset> ReadAsciiQuarter(
    const AsciiQuarterFiles& files, int year, int quarter) {
  return ReadAsciiQuarter(files, year, quarter, IngestOptions{});
}

maras::StatusOr<QuarterDataset> ReadAsciiQuarter(
    const AsciiQuarterFiles& files, int year, int quarter,
    const IngestOptions& options, IngestReport* report) {
  const bool strict = options.policy == IngestPolicy::kStrict;
  IngestReport local;
  IngestReport* acc = &local;

  std::string suffix = FileSuffix(year, quarter);
  TableIngest demo(&options, acc, "DEMO" + suffix + ".txt");
  TableIngest drug(&options, acc, "DRUG" + suffix + ".txt");
  TableIngest reac(&options, acc, "REAC" + suffix + ".txt");

  // The tables are streamed in DEMO, DRUG, REAC order and no row is ever
  // materialized: each visitor interprets the row's field views in place.
  // Faults are reported in the order of a read that first parses all
  // three tables and then interprets them, so a strict read reports a
  // wrong-width row in any table before a missing column or a bad value.
  maras::DelimitedReader reader(kDelim);
  auto parse = [&](TableIngest* table, const std::string& content,
                   const maras::DelimitedVisitor& on_header,
                   const maras::DelimitedVisitor& on_row) -> maras::Status {
    return maras::WithContext(
        reader.Parse(content, strict ? nullptr : &table->issues, on_header,
                     [&](const maras::DelimitedRow& row) {
                       ++table->rows;
                       if (table->columns.ok()) on_row(row);
                     }),
        table->file);
  };

  QuarterDataset dataset;
  dataset.year = year;
  dataset.quarter = quarter;
  const size_t demo_lines = static_cast<size_t>(
      std::count(files.demo.begin(), files.demo.end(), '\n'));
  dataset.reports.reserve(demo_lines);
  // primaryid -> index into dataset.reports.
  std::unordered_map<uint64_t, size_t> by_primary;
  by_primary.reserve(demo_lines);
  // Primaryids of DEMO rows rejected here — their DRUG/REAC rows are
  // collateral damage of the root fault, not independent orphans.
  std::set<uint64_t> rejected_primary;

  int d_primary = -1, d_caseid = -1, d_version = -1, d_rept = -1;
  int d_age = -1, d_sex = -1, d_country = -1;
  auto demo_header = [&](const maras::DelimitedRow& header) {
    d_primary = ColumnIndex(header, "primaryid");
    d_caseid = ColumnIndex(header, "caseid");
    d_version = ColumnIndex(header, "caseversion");
    d_rept = ColumnIndex(header, "rept_cod");
    d_age = ColumnIndex(header, "age");
    d_sex = ColumnIndex(header, "sex");
    d_country = ColumnIndex(header, "occr_country");
    if (d_primary < 0 || d_caseid < 0 || d_version < 0 || d_rept < 0) {
      demo.columns = maras::WithContext(
          maras::Status::Corruption("DEMO table missing required columns"),
          demo.file);
    }
  };
  auto demo_row = [&](const maras::DelimitedRow& row) {
    const auto field = [&](int column) {
      return row.fields[static_cast<size_t>(column)];
    };
    uint64_t primary = 0;
    if (!ParseUint64Field(field(d_primary), &primary)) {
      demo.Reject(RowFault::kBadNumeric, row, "primaryid",
                  "unparseable primaryid '" + std::string(field(d_primary)) +
                      "'");
      return;
    }
    // Marks this DEMO row's primaryid rejected so its children are
    // classified collateral.
    auto reject = [&](RowFault fault, const char* column,
                      std::string reason) {
      demo.Reject(fault, row, column, std::move(reason));
      rejected_primary.insert(primary);
    };
    Report r;
    if (!ParseUint64Field(field(d_caseid), &r.case_id)) {
      reject(RowFault::kBadNumeric, "caseid",
             "unparseable caseid '" + std::string(field(d_caseid)) + "'");
      return;
    }
    if (!ParseUint32Field(field(d_version), &r.case_version)) {
      reject(RowFault::kBadNumeric, "caseversion",
             "unparseable caseversion '" + std::string(field(d_version)) +
                 "'");
      return;
    }
    if (!ParseReportType(field(d_rept), &r.type)) {
      reject(RowFault::kBadCode, "rept_cod",
             "bad rept_cod: " + std::string(field(d_rept)));
      return;
    }
    if (d_age >= 0 && !field(d_age).empty() &&
        !ParseAgeField(field(d_age), &r.age)) {
      reject(RowFault::kBadNumeric, "age",
             "unparseable age '" + std::string(field(d_age)) + "'");
      return;
    }
    if (d_sex >= 0 && !ParseSex(field(d_sex), &r.sex)) {
      reject(RowFault::kBadCode, "sex",
             "bad sex code: " + std::string(field(d_sex)));
      return;
    }
    if (d_country >= 0) r.country = field(d_country);
    // The first row with a primaryid wins; a later copy is the fault, and
    // the surviving report keeps its children.
    if (!by_primary.try_emplace(primary, dataset.reports.size()).second) {
      demo.Reject(RowFault::kDuplicatePrimaryId, row, "primaryid",
                  "duplicate primaryid " + std::string(field(d_primary)));
      return;
    }
    dataset.reports.push_back(std::move(r));
  };
  MARAS_RETURN_IF_ERROR(parse(&demo, files.demo, demo_header, demo_row));
  for (const maras::DelimitedRowIssue& issue : demo.issues) {
    uint64_t primary = 0;
    if (PrimaryIdPrefix(issue.content, &primary)) {
      rejected_primary.insert(primary);
    }
  }

  // DRUG and REAC rows join against the DEMO index identically; only the
  // payload column differs. A joined row's payload is interned into the
  // quarter's name arena and queued as a (report, name) mention; rows that
  // never join (orphans, collateral) leave the arena untouched. A mention's
  // report index and name id are 32-bit, so a quarter with 2^32 reports or
  // past NameArena::kMaxBytes of distinct names fails the read instead of
  // wrapping.
  if (dataset.reports.size() > UINT32_MAX) {
    return maras::WithContext(
        maras::Status::ResourceExhausted("more than 2^32 DEMO reports"),
        demo.file);
  }
  struct Mention {
    uint32_t report;
    NameId name;
  };
  auto ingest_child_table =
      [&](TableIngest* table, const std::string& content,
          const char* required_column, const char* kind,
          std::vector<NameId> Report::*payload) -> maras::Status {
    int c_primary = -1, c_payload = -1;
    auto on_header = [&](const maras::DelimitedRow& header) {
      c_primary = ColumnIndex(header, "primaryid");
      c_payload = ColumnIndex(header, required_column);
      if (c_primary < 0 || c_payload < 0) {
        table->columns = maras::WithContext(
            maras::Status::Corruption(std::string(kind) +
                                      " table missing required columns"),
            table->file);
      }
    };
    std::vector<Mention> mentions;
    mentions.reserve(static_cast<size_t>(
        std::count(content.begin(), content.end(), '\n')));
    maras::Status arena_full;
    auto on_row = [&](const maras::DelimitedRow& row) {
      // Rows of a quarter whose DEMO table is unusable are never joined.
      if (!demo.columns.ok() || !arena_full.ok()) return;
      const std::string_view primary_field =
          row.fields[static_cast<size_t>(c_primary)];
      uint64_t primary = 0;
      if (!ParseUint64Field(primary_field, &primary)) {
        table->Reject(RowFault::kBadNumeric, row, "primaryid",
                      "unparseable primaryid '" + std::string(primary_field) +
                          "'");
        return;
      }
      const auto it = by_primary.find(primary);
      if (it == by_primary.end()) {
        bool collateral = rejected_primary.count(primary) > 0;
        table->Reject(
            collateral ? RowFault::kCollateral : RowFault::kOrphanRow, row,
            "primaryid",
            std::string(kind) + " row with unknown primaryid " +
                std::string(primary_field));
        return;
      }
      NameId name = 0;
      if (!dataset.names.TryIntern(row.fields[static_cast<size_t>(c_payload)],
                                   &name)) {
        arena_full = maras::WithContext(
            maras::Status::ResourceExhausted(
                "distinct DRUG/REAC names exceed the name arena's " +
                std::to_string(NameArena::kMaxBytes) + " bytes"),
            table->file);
        return;
      }
      mentions.push_back(Mention{static_cast<uint32_t>(it->second), name});
    };
    MARAS_RETURN_IF_ERROR(parse(table, content, on_header, on_row));
    MARAS_RETURN_IF_ERROR(arena_full);
    // Each report's ids at their exact size, in row order.
    std::vector<uint32_t> counts(dataset.reports.size(), 0);
    for (const Mention& m : mentions) ++counts[m.report];
    for (size_t i = 0; i < counts.size(); ++i) {
      (dataset.reports[i].*payload).reserve(counts[i]);
    }
    for (const Mention& m : mentions) {
      (dataset.reports[m.report].*payload).push_back(m.name);
    }
    return maras::Status::OK();
  };
  MARAS_RETURN_IF_ERROR(ingest_child_table(&drug, files.drug, "drugname",
                                           "DRUG", &Report::drugs));
  MARAS_RETURN_IF_ERROR(
      ingest_child_table(&reac, files.reac, "pt", "REAC", &Report::reactions));

  MARAS_RETURN_IF_ERROR(
      demo.Replay([](std::string_view) { return RowFault::kMalformedRow; }));
  auto child_width_fault = [&](std::string_view content) {
    uint64_t primary = 0;
    return PrimaryIdPrefix(content, &primary) &&
                   rejected_primary.count(primary) > 0
               ? RowFault::kCollateral
               : RowFault::kMalformedRow;
  };
  MARAS_RETURN_IF_ERROR(drug.Replay(child_width_fault));
  MARAS_RETURN_IF_ERROR(reac.Replay(child_width_fault));

  acc->reports_ingested += dataset.reports.size();
  // Deliver the accounting even when the budget check below fails the read —
  // the diagnostics explain *why* the quarter was declared unusable.
  if (report != nullptr) report->Merge(local);
  if (!strict && acc->rows_rejected > 0 &&
      acc->rejected_fraction() > options.max_bad_row_fraction) {
    char frac[32];
    std::snprintf(frac, sizeof(frac), "%.1f%%",
                  100.0 * acc->rejected_fraction());
    return maras::WithContext(
        maras::Status::Corruption(
            std::to_string(acc->rows_rejected) + " of " +
            std::to_string(acc->rows_seen) + " rows rejected (" + frac +
            ") exceeds the error budget of " +
            std::to_string(options.max_bad_row_fraction)),
        "quarter " + std::to_string(year) + "Q" + std::to_string(quarter));
  }
  return dataset;
}

maras::StatusOr<QuarterDataset> ReadAsciiQuarterFromDir(
    const std::string& directory, int year, int quarter) {
  return ReadAsciiQuarterFromDir(directory, year, quarter, IngestOptions{});
}

maras::StatusOr<QuarterDataset> ReadAsciiQuarterFromDir(
    const std::string& directory, int year, int quarter,
    const IngestOptions& options, IngestReport* report) {
  std::string suffix = FileSuffix(year, quarter);
  AsciiQuarterFiles files;
  struct Source {
    const char* prefix;
    std::string* dest;
  };
  for (const Source& source : {Source{"DEMO", &files.demo},
                               Source{"DRUG", &files.drug},
                               Source{"REAC", &files.reac}}) {
    std::string path = directory + "/" + source.prefix + suffix + ".txt";
    auto content = maras::ReadFileToString(path);
    if (!content.ok()) {
      return maras::WithContext(content.status(),
                                std::string(source.prefix) + " file");
    }
    *source.dest = *std::move(content);
  }
  return ReadAsciiQuarter(files, year, quarter, options, report);
}

}  // namespace maras::faers
