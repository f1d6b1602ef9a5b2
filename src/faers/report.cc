#include "faers/report.h"

#include <functional>

#include "util/logging.h"

namespace maras::faers {

std::string ReportTypeCode(ReportType type) {
  switch (type) {
    case ReportType::kExpedited:
      return "EXP";
    case ReportType::kPeriodic:
      return "PER";
    case ReportType::kDirect:
      return "DIR";
  }
  return "EXP";
}

bool ParseReportType(std::string_view code, ReportType* out) {
  if (code == "EXP") {
    *out = ReportType::kExpedited;
  } else if (code == "PER") {
    *out = ReportType::kPeriodic;
  } else if (code == "DIR") {
    *out = ReportType::kDirect;
  } else {
    return false;
  }
  return true;
}

std::string SexCode(Sex sex) {
  switch (sex) {
    case Sex::kFemale:
      return "F";
    case Sex::kMale:
      return "M";
    case Sex::kUnknown:
      return "UNK";
  }
  return "UNK";
}

bool ParseSex(std::string_view code, Sex* out) {
  if (code == "F") {
    *out = Sex::kFemale;
  } else if (code == "M") {
    *out = Sex::kMale;
  } else if (code == "UNK" || code.empty()) {
    *out = Sex::kUnknown;
  } else {
    return false;
  }
  return true;
}

size_t NameArena::Probe(std::string_view name, size_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const uint32_t entry = slots_[slot];
    if (entry == 0 || Name(entry - 1) == name) return slot;
  }
}

void NameArena::Rehash(size_t slot_count) {
  slots_.assign(slot_count, 0);
  for (NameId id = 0; id < size(); ++id) {
    const std::string_view name = Name(id);
    slots_[Probe(name, std::hash<std::string_view>{}(name))] = id + 1;
  }
}

NameArena::NameArena(size_t max_bytes) : max_bytes_(max_bytes) {
  MARAS_CHECK(max_bytes <= kMaxBytes) << "name arena cap past 4 GiB";
}

bool NameArena::TryIntern(std::string_view name, NameId* id) {
  // At most half full, so every probe ends at an empty slot.
  if (2 * (size() + 1) > slots_.size()) {
    Rehash(slots_.empty() ? 64 : 2 * slots_.size());
  }
  const size_t slot = Probe(name, std::hash<std::string_view>{}(name));
  if (slots_[slot] != 0) {
    *id = slots_[slot] - 1;
    return true;
  }
  if (name.size() > max_bytes_ - bytes_.size()) return false;
  *id = static_cast<NameId>(size());
  bytes_.append(name);
  offsets_.push_back(static_cast<uint32_t>(bytes_.size()));
  slots_[slot] = *id + 1;
  return true;
}

NameId NameArena::Intern(std::string_view name) {
  NameId id = 0;
  MARAS_CHECK(TryIntern(name, &id)) << "name arena full";
  return id;
}

std::vector<NameId> NameArena::InternAll(
    const std::vector<std::string>& names) {
  std::vector<NameId> ids;
  ids.reserve(names.size());
  for (const std::string& name : names) ids.push_back(Intern(name));
  return ids;
}

std::vector<std::string> QuarterDataset::Names(
    const std::vector<NameId>& ids) const {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (NameId id : ids) out.emplace_back(Name(id));
  return out;
}

}  // namespace maras::faers
