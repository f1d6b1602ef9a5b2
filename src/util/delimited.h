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

// A parsed delimited-text table: a header row plus data rows. FAERS quarterly
// extracts are '$'-delimited ASCII files with one header line; this reader is
// also used (with ',') for the small vocabulary files shipped with examples.
struct DelimitedTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  // 1-based source line of rows[i] — lets a consumer cite the original file
  // location in diagnostics even after blank lines or rejected rows.
  std::vector<size_t> row_lines;

  // Index of `column` in the header, or -1 when absent.
  int ColumnIndex(const std::string& column) const;
};

// One row the permissive parser rejected, with enough context to quarantine
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

  // Collects Parse() into a table. Every row must have the same number of
  // fields as the header; a short/long row yields Corruption.
  StatusOr<DelimitedTable> ParseString(const std::string& content) const;

  // Permissive variant: a row whose field count disagrees with the header is
  // recorded in `issues` and skipped instead of failing the parse. A missing
  // header is still Corruption (nothing can be interpreted without one).
  StatusOr<DelimitedTable> ParseString(
      const std::string& content, std::vector<DelimitedRowIssue>* issues) const;

  // Reads and parses a file from disk.
  StatusOr<DelimitedTable> ReadFile(const std::string& path) const;

 private:
  char delim_;
};

class DelimitedWriter {
 public:
  explicit DelimitedWriter(char delim) : delim_(delim) {}

  // Serializes the table; rows must match the header width.
  StatusOr<std::string> ToString(const DelimitedTable& table) const;

  Status WriteFile(const std::string& path,
                   const DelimitedTable& table) const;

 private:
  char delim_;
};

// Reads an entire file into memory.
StatusOr<std::string> ReadFileToString(const std::string& path);

// Writes `content` to `path`, replacing any existing file.
Status WriteStringToFile(const std::string& path, const std::string& content);

// Crash-safe replacement of `path`: writes to `path`.tmp in the same
// directory, fsyncs the data, then renames over `path`. A crash at any point
// leaves either the old complete file or the new complete file — never a
// torn mix — which checkpoint recovery (core/checkpoint.h) relies on. The
// leftover .tmp from a mid-write crash is simply overwritten next time.
Status AtomicWriteStringToFile(const std::string& path,
                               const std::string& content);

}  // namespace maras

#endif  // MARAS_UTIL_DELIMITED_H_
