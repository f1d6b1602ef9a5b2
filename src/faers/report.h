#ifndef MARAS_FAERS_REPORT_H_
#define MARAS_FAERS_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace maras::faers {

// Report type codes used by FAERS: expedited 15-day reports (EXP) are the
// manufacturer-mandated serious events the paper selects (Section 5.1).
enum class ReportType : uint8_t {
  kExpedited = 0,   // "EXP"
  kPeriodic = 1,    // "PER"
  kDirect = 2,      // "DIR"
};

std::string ReportTypeCode(ReportType type);
bool ParseReportType(std::string_view code, ReportType* out);

// Patient sex as reported.
enum class Sex : uint8_t { kUnknown = 0, kFemale = 1, kMale = 2 };
std::string SexCode(Sex sex);
bool ParseSex(std::string_view code, Sex* out);

// Id of one distinct raw name in its quarter's NameArena.
using NameId = uint32_t;

// The distinct raw DRUG/REAC names of one quarter, each stored once in one
// byte buffer behind an open-addressed index. Ids are dense and follow
// first-intern order, so a report holds 4-byte ids instead of strings and
// the cleaner resolves each distinct name once by indexing a vector.
class NameArena {
 public:
  // Offsets are 32-bit: the names together hold at most this many bytes.
  static constexpr size_t kMaxBytes = UINT32_MAX;

  NameArena() = default;
  // An arena whose names together hold at most `max_bytes` (<= kMaxBytes).
  explicit NameArena(size_t max_bytes);

  // Id of `name`, adding it when new. A new name that does not fit under
  // the cap fails the process; callers reading outside input use TryIntern.
  NameId Intern(std::string_view name);
  // Sets *id to the id of `name`, adding it when new. Returns false, adding
  // nothing, when `name` is new and does not fit under the cap.
  bool TryIntern(std::string_view name, NameId* id);
  // Ids of `names`, interned in order.
  std::vector<NameId> InternAll(const std::vector<std::string>& names);

  // Text of `id` (< size()). The view is valid until the next Intern.
  std::string_view Name(NameId id) const {
    return std::string_view(bytes_.data() + offsets_[id],
                            offsets_[id + 1] - offsets_[id]);
  }

  size_t size() const { return offsets_.size() - 1; }

 private:
  // Slot of `name` (hash `hash`): its id + 1, or 0 where it would go.
  size_t Probe(std::string_view name, size_t hash) const;
  void Rehash(size_t slot_count);

  size_t max_bytes_ = kMaxBytes;
  std::string bytes_;  // every name, back to back
  // Name id spans bytes [offsets_[id], offsets_[id + 1]).
  std::vector<uint32_t> offsets_ = {0};
  std::vector<uint32_t> slots_;  // power-of-two table: id + 1, 0 when empty
};

// One individual safety report (one FAERS case version): the set of drugs
// the patient took and the set of adverse reactions observed, plus the
// demographic fields MARAS surfaces during drill-down.
struct Report {
  // FAERS primaryid = caseid concatenated with the version; we keep them
  // separate and join on output.
  uint64_t case_id = 0;
  uint32_t case_version = 1;
  ReportType type = ReportType::kExpedited;
  Sex sex = Sex::kUnknown;
  // Age in years; < 0 means unreported.
  double age = -1.0;
  std::string country;  // ISO-like two-letter code

  // Verbatim drug names as reported (may contain misspellings, brand names,
  // dose decorations) and reaction preferred terms, in row order, as ids
  // into the quarter's QuarterDataset::names.
  std::vector<NameId> drugs;
  std::vector<NameId> reactions;

  uint64_t primary_id() const { return case_id * 100 + case_version; }
};

// One FAERS quarterly extract.
struct QuarterDataset {
  int year = 0;
  int quarter = 0;  // 1..4
  std::vector<Report> reports;
  NameArena names;  // every raw name the reports mention

  std::string_view Name(NameId id) const { return names.Name(id); }
  // Texts of `ids`, for comparing reports by content.
  std::vector<std::string> Names(const std::vector<NameId>& ids) const;

  std::string Label() const {
    return std::to_string(year) + "Q" + std::to_string(quarter);
  }
};

}  // namespace maras::faers

#endif  // MARAS_FAERS_REPORT_H_
