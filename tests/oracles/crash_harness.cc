#include "tests/oracles/crash_harness.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <vector>

#include "util/delimited.h"
#include "util/random.h"

namespace maras::faers {

size_t RowFaultCount(const CorruptionResult& result) {
  return static_cast<size_t>(
      std::count_if(result.faults.begin(), result.faults.end(),
                    [](const InjectedFault& fault) {
                      return fault.kind != FaultKind::kMissingFile;
                    }));
}

maras::Status WriteCorruptedQuarterToDir(const CorruptionResult& result,
                                         const std::string& directory,
                                         int year, int quarter) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), "%02dQ%d.txt", year % 100, quarter);
  struct Entry {
    const char* prefix;
    const std::string* content;
  };
  for (const Entry& entry : {Entry{"DEMO", &result.files.demo},
                             Entry{"DRUG", &result.files.drug},
                             Entry{"REAC", &result.files.reac}}) {
    const std::string path = directory + "/" + entry.prefix + suffix;
    if (std::find(result.missing.begin(), result.missing.end(),
                  entry.prefix) != result.missing.end()) {
      std::remove(path.c_str());  // tolerate the file not existing
      continue;
    }
    MARAS_RETURN_IF_ERROR_CTX(
        maras::AtomicWriteStringToFile(path, *entry.content), path);
  }
  return maras::Status::OK();
}

maras::Status TruncateFileAt(const std::string& path, size_t offset) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) {
    return maras::Status::IOError("cannot stat " + path + ": " + ec.message());
  }
  if (offset > size) {
    return maras::Status::InvalidArgument(
        "truncate offset " + std::to_string(offset) + " past end of " + path +
        " (" + std::to_string(size) + " bytes)");
  }
  std::filesystem::resize_file(path, offset, ec);
  if (ec) {
    return maras::Status::IOError("cannot truncate " + path + ": " +
                                  ec.message());
  }
  return maras::Status::OK();
}

maras::StatusOr<TornFile> TearFileMidRecord(const std::string& content,
                                            uint64_t seed) {
  // The lines of `content` (a final line may lack its '\n').
  std::vector<std::string_view> lines;
  for (size_t pos = 0; pos < content.size();) {
    const size_t eol = std::min(content.find('\n', pos), content.size());
    lines.push_back(std::string_view(content).substr(pos, eol - pos));
    pos = eol + 1;
  }
  // Candidate victims: data rows (line 2 onward) at least two bytes wide, so
  // a cut can land strictly inside the row and leave a malformed remnant.
  std::vector<size_t> candidates;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].size() >= 2) candidates.push_back(i);
  }
  if (candidates.empty()) {
    return maras::Status::InvalidArgument(
        "no data row wide enough to tear mid-record");
  }
  maras::Rng rng(seed);
  const size_t victim = candidates[rng.Uniform(candidates.size())];
  // Cut after at least one byte of the row and before its last byte.
  const size_t within =
      1 + static_cast<size_t>(rng.Uniform(lines[victim].size() - 1));
  size_t offset = 0;
  for (size_t i = 0; i < victim; ++i) offset += lines[i].size() + 1;
  offset += within;
  TornFile torn;
  torn.offset = offset;
  torn.content = content.substr(0, offset);
  torn.first_lost_line = victim + 1;  // 1-based
  for (char c : lines[victim]) {
    if (c < '0' || c > '9') break;
    torn.damaged_primary_id =
        torn.damaged_primary_id * 10 + static_cast<uint64_t>(c - '0');
  }
  return torn;
}

}  // namespace maras::faers
