#include "faers/corruptor.h"

#include <algorithm>
#include <cstdio>

#include "util/random.h"
#include "util/string_util.h"

namespace maras::faers {

namespace {

constexpr char kDelim = '$';

std::string FileSuffix(int year, int quarter) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02dQ%d", year % 100, quarter);
  return buf;
}

// One table being corrupted: its lines (index 0 is the header), the count of
// original data lines eligible as victims, and which are already damaged.
struct MutableTable {
  std::string name;  // "DEMO" / "DRUG" / "REAC"
  std::string file;  // "DEMO14Q1.txt"
  std::vector<std::string> lines;
  size_t original_lines = 0;   // victims are chosen among lines [1, this)
  std::set<size_t> used;       // damaged line indices (0-based)

  size_t data_rows() const { return original_lines - 1; }
};

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) {
      lines.push_back(content.substr(pos));
      break;
    }
    lines.push_back(content.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

uint64_t LeadingPrimaryId(const std::string& line) {
  uint64_t value = 0;
  for (char c : line) {
    if (c < '0' || c > '9') break;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTruncateRow:
      return "truncate-row";
    case FaultKind::kEmbeddedDelimiter:
      return "embedded-delimiter";
    case FaultKind::kDropColumn:
      return "drop-column";
    case FaultKind::kReorderColumns:
      return "reorder-columns";
    case FaultKind::kDuplicatePrimaryId:
      return "duplicate-primaryid";
    case FaultKind::kOrphanDrugRow:
      return "orphan-drug-row";
    case FaultKind::kOrphanReacRow:
      return "orphan-reac-row";
    case FaultKind::kGarbageNumeric:
      return "garbage-numeric";
    case FaultKind::kMissingFile:
      return "missing-file";
  }
  return "?";
}

std::vector<FaultSpec> AllRowFaults(size_t per_kind) {
  return {
      {FaultKind::kTruncateRow, per_kind},
      {FaultKind::kEmbeddedDelimiter, per_kind},
      {FaultKind::kDropColumn, per_kind},
      {FaultKind::kReorderColumns, per_kind},
      {FaultKind::kDuplicatePrimaryId, per_kind},
      {FaultKind::kOrphanDrugRow, per_kind},
      {FaultKind::kOrphanReacRow, per_kind},
      {FaultKind::kGarbageNumeric, per_kind},
  };
}

maras::StatusOr<CorruptionResult> Corruptor::Corrupt(
    const AsciiQuarterFiles& clean, int year, int quarter) const {
  std::string suffix = FileSuffix(year, quarter);
  MutableTable demo{"DEMO", "DEMO" + suffix + ".txt", SplitLines(clean.demo),
                    0, {}};
  MutableTable drug{"DRUG", "DRUG" + suffix + ".txt", SplitLines(clean.drug),
                    0, {}};
  MutableTable reac{"REAC", "REAC" + suffix + ".txt", SplitLines(clean.reac),
                    0, {}};
  for (MutableTable* table : {&demo, &drug, &reac}) {
    if (table->lines.empty()) {
      return maras::Status::InvalidArgument("empty " + table->name +
                                            " table cannot be corrupted");
    }
    table->original_lines = table->lines.size();
  }

  CorruptionResult result;
  maras::Rng rng(config_.seed);

  uint64_t max_primary = 0;
  for (size_t i = 1; i < demo.original_lines; ++i) {
    max_primary = std::max(max_primary, LeadingPrimaryId(demo.lines[i]));
  }
  uint64_t next_phantom = max_primary + 1;

  // Picks an undamaged original data line whose report carries no fault yet.
  // The one-fault-per-report contract keeps quarantine accounting exact.
  auto pick_victim = [&](MutableTable* table, size_t* line_index,
                         uint64_t* primary) -> bool {
    if (table->data_rows() == 0) return false;
    for (int attempt = 0; attempt < 200; ++attempt) {
      size_t index = 1 + static_cast<size_t>(rng.Uniform(table->data_rows()));
      if (table->used.count(index) > 0) continue;
      uint64_t pid = LeadingPrimaryId(table->lines[index]);
      if (pid == 0 || result.faulted_primary_ids.count(pid) > 0) continue;
      table->used.insert(index);
      result.faulted_primary_ids.insert(pid);
      *line_index = index;
      *primary = pid;
      return true;
    }
    return false;
  };

  auto record = [&](FaultKind kind, const MutableTable& table, size_t index,
                    uint64_t primary, std::string detail) {
    result.faults.push_back(InjectedFault{kind, table.file, index + 1, primary,
                                          std::move(detail)});
  };

  for (const FaultSpec& spec : config_.faults) {
    for (size_t n = 0; n < spec.count; ++n) {
      switch (spec.kind) {
        case FaultKind::kTruncateRow:
        case FaultKind::kEmbeddedDelimiter:
        case FaultKind::kDropColumn: {
          // These strike any of the three tables; the leading primaryid
          // field is always preserved so the rejected row stays attributable.
          MutableTable* table =
              rng.Uniform(3) == 0 ? &demo : rng.Uniform(2) == 0 ? &drug
                                                                : &reac;
          size_t index = 0;
          uint64_t primary = 0;
          if (!pick_victim(table, &index, &primary)) {
            return maras::Status::InvalidArgument(
                "not enough clean rows in " + table->name +
                " for fault " + FaultKindName(spec.kind));
          }
          std::string& line = table->lines[index];
          size_t first = line.find(kDelim);
          size_t last = line.rfind(kDelim);
          if (first == std::string::npos) {
            return maras::Status::InvalidArgument("undelimited row in " +
                                                  table->name);
          }
          if (spec.kind == FaultKind::kTruncateRow) {
            // Cut in [first+1, last]: at least the last delimiter is lost,
            // the primaryid field and its delimiter survive.
            size_t cut = first + 1 +
                         static_cast<size_t>(rng.Uniform(last - first));
            line.resize(cut);
            record(spec.kind, *table, index, primary,
                   "truncated at byte " + std::to_string(cut));
          } else if (spec.kind == FaultKind::kEmbeddedDelimiter) {
            size_t pos = first + 1 +
                         static_cast<size_t>(
                             rng.Uniform(line.size() - first));
            line.insert(pos, 1, kDelim);
            record(spec.kind, *table, index, primary,
                   "stray delimiter at byte " + std::to_string(pos));
          } else {
            std::vector<std::string> fields = maras::Split(line, kDelim);
            size_t drop = 1 + static_cast<size_t>(
                                  rng.Uniform(fields.size() - 1));
            std::string dropped = fields[drop];
            fields.erase(fields.begin() +
                         static_cast<std::ptrdiff_t>(drop));
            line = maras::Join(fields, kDelim);
            record(spec.kind, *table, index, primary,
                   "dropped field " + std::to_string(drop) + " ('" + dropped +
                       "')");
          }
          break;
        }
        case FaultKind::kReorderColumns: {
          // DEMO layout: primaryid caseid caseversion rept_cod age sex
          // occr_country. Swapping rept_cod and occr_country keeps the field
          // count valid but plants a code the parser must reject.
          size_t index = 0;
          uint64_t primary = 0;
          if (!pick_victim(&demo, &index, &primary)) {
            return maras::Status::InvalidArgument(
                "not enough clean DEMO rows for reorder-columns");
          }
          std::vector<std::string> fields =
              maras::Split(demo.lines[index], kDelim);
          if (fields.size() < 7) {
            return maras::Status::InvalidArgument("short DEMO row");
          }
          std::swap(fields[3], fields[6]);
          demo.lines[index] = maras::Join(fields, kDelim);
          record(spec.kind, demo, index, primary,
                 "swapped rept_cod and occr_country");
          break;
        }
        case FaultKind::kGarbageNumeric: {
          size_t index = 0;
          uint64_t primary = 0;
          if (!pick_victim(&demo, &index, &primary)) {
            return maras::Status::InvalidArgument(
                "not enough clean DEMO rows for garbage-numeric");
          }
          std::vector<std::string> fields =
              maras::Split(demo.lines[index], kDelim);
          if (fields.size() < 2) {
            return maras::Status::InvalidArgument("short DEMO row");
          }
          fields[1] = "4O4NOTANUMBER";  // letter O, not zero
          demo.lines[index] = maras::Join(fields, kDelim);
          record(spec.kind, demo, index, primary, "caseid replaced with '" +
                                                      fields[1] + "'");
          break;
        }
        case FaultKind::kDuplicatePrimaryId: {
          // Duplicate an undamaged row: the reader keeps the first
          // occurrence and quarantines the appended copy. The source row is
          // reserved (pick_victim) so no later fault damages it — that
          // would turn the appended copy into the surviving occurrence and
          // silently absorb the duplicate fault.
          size_t index = 0;
          uint64_t primary = 0;
          if (!pick_victim(&demo, &index, &primary)) {
            return maras::Status::InvalidArgument(
                "not enough clean DEMO rows for duplicate-primaryid");
          }
          demo.lines.push_back(demo.lines[index]);
          record(spec.kind, demo, demo.lines.size() - 1, primary,
                 "re-appended DEMO line " + std::to_string(index + 1));
          break;
        }
        case FaultKind::kOrphanDrugRow:
        case FaultKind::kOrphanReacRow: {
          MutableTable* table =
              spec.kind == FaultKind::kOrphanDrugRow ? &drug : &reac;
          uint64_t phantom = next_phantom++;
          std::string row =
              spec.kind == FaultKind::kOrphanDrugRow
                  ? std::to_string(phantom) + "$" +
                        std::to_string(phantom / 100) + "$1$PS$PHANTOMDRUG"
                  : std::to_string(phantom) + "$" +
                        std::to_string(phantom / 100) + "$PHANTOM REACTION";
          table->lines.push_back(row);
          record(spec.kind, *table, table->lines.size() - 1, 0,
                 "appended orphan row with primaryid " +
                     std::to_string(phantom));
          break;
        }
        case FaultKind::kMissingFile: {
          const MutableTable* choices[] = {&demo, &drug, &reac};
          std::string name;
          for (int attempt = 0; attempt < 16 && name.empty(); ++attempt) {
            const MutableTable* pick = choices[rng.Uniform(3)];
            if (std::find(result.missing.begin(), result.missing.end(),
                          pick->name) == result.missing.end()) {
              name = pick->name;
            }
          }
          if (name.empty()) {
            return maras::Status::InvalidArgument(
                "all three files already missing");
          }
          result.missing.push_back(name);
          result.faults.push_back(InjectedFault{
              spec.kind, name, 0, 0, "file removed from the extract"});
          break;
        }
      }
    }
  }

  result.files.demo = JoinLines(demo.lines);
  result.files.drug = JoinLines(drug.lines);
  result.files.reac = JoinLines(reac.lines);
  return result;
}

}  // namespace maras::faers

