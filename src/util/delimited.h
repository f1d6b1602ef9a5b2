#ifndef MARAS_UTIL_DELIMITED_H_
#define MARAS_UTIL_DELIMITED_H_

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace maras {

// A delimited-text table to write: a header row plus data rows. FAERS
// quarterly extracts are '$'-delimited ASCII files with one header line.
struct DelimitedTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

// One row the parser skipped for its width, with enough context to quarantine
// or log it: where it was, why it was dropped, and its verbatim bytes.
struct DelimitedRowIssue {
  size_t line = 0;      // 1-based line number in the source buffer
  std::string reason;   // e.g. "5 fields, expected 7"
  std::string content;  // the rejected line, verbatim
};

// One row as the streaming parser sees it. Every view points into the
// buffer being parsed or into the parser's scratch and is valid only for the
// duration of the visitor call.
struct DelimitedRow {
  size_t line = 0;        // 1-based line number in the source buffer
  std::string_view text;  // the whole line, without its '\r\n' or '\n'
  std::span<const std::string_view> fields;
};

using DelimitedVisitor = std::function<void(const DelimitedRow&)>;

class DelimitedReader {
 public:
  explicit DelimitedReader(char delim) : delim_(delim) {}

  // The parser. Streams `content` line by line without copying it: blank
  // lines are skipped, line 1 is the header and goes to `on_header`, and
  // every later row with as many fields as the header goes to `on_row`. A
  // row of another width is Corruption when `issues` is null; otherwise it
  // is recorded in `issues` and skipped. A buffer whose line 1 is empty has
  // no header, which is Corruption once the whole buffer has been read.
  Status Parse(std::string_view content,
               std::vector<DelimitedRowIssue>* issues,
               const DelimitedVisitor& on_header,
               const DelimitedVisitor& on_row) const;

 private:
  char delim_;
};

class DelimitedWriter {
 public:
  explicit DelimitedWriter(char delim) : delim_(delim) {}

  // Serializes the table; rows must match the header width.
  StatusOr<std::string> ToString(const DelimitedTable& table) const;

 private:
  char delim_;
};

// Reads an entire file into memory.
StatusOr<std::string> ReadFileToString(const std::string& path);

// Crash-safe replacement of `path`: writes to `path`.tmp in the same
// directory, fsyncs the data, then renames over `path`. A crash at any point
// leaves either the old complete file or the new complete file — never a
// torn mix — which checkpoint recovery (core/checkpoint.h) relies on. The
// leftover .tmp from a mid-write crash is simply overwritten next time.
Status AtomicWriteStringToFile(const std::string& path,
                               const std::string& content);

}  // namespace maras

#endif  // MARAS_UTIL_DELIMITED_H_
