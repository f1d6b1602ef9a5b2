#include "util/delimited.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace maras {

int DelimitedTable::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == column) return static_cast<int>(i);
  }
  return -1;
}

StatusOr<DelimitedTable> DelimitedReader::ParseString(
    const std::string& content) const {
  return ParseString(content, nullptr);
}

Status DelimitedReader::Parse(std::string_view content,
                              std::vector<DelimitedRowIssue>* issues,
                              const DelimitedVisitor& on_header,
                              const DelimitedVisitor& on_row) const {
  std::vector<std::string_view> fields;
  size_t width = 0;
  bool has_header = false;
  size_t pos = 0;
  size_t line_no = 0;
  while (pos < content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string_view::npos) eol = content.size();
    std::string_view line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ++line_no;
    if (line.empty()) continue;  // skip blank lines
    fields.clear();
    for (size_t start = 0;;) {
      size_t delim = line.find(delim_, start);
      if (delim == std::string_view::npos) {
        fields.push_back(line.substr(start));
        break;
      }
      fields.push_back(line.substr(start, delim - start));
      start = delim + 1;
    }
    const DelimitedRow row{line_no, line, fields};
    if (line_no == 1) {
      width = fields.size();
      has_header = true;
      on_header(row);
      continue;
    }
    if (fields.size() != width) {
      std::string reason = "row " + std::to_string(line_no) + " has " +
                           std::to_string(fields.size()) +
                           " fields, expected " + std::to_string(width);
      if (issues == nullptr) return Status::Corruption(reason);
      issues->push_back(
          DelimitedRowIssue{line_no, std::move(reason), std::string(line)});
      continue;
    }
    on_row(row);
  }
  if (!has_header) return Status::Corruption("missing header row");
  return Status::OK();
}

StatusOr<DelimitedTable> DelimitedReader::ParseString(
    const std::string& content, std::vector<DelimitedRowIssue>* issues) const {
  DelimitedTable table;
  auto strings = [](const DelimitedRow& row) {
    return std::vector<std::string>(row.fields.begin(), row.fields.end());
  };
  MARAS_RETURN_IF_ERROR(Parse(
      content, issues,
      [&](const DelimitedRow& row) { table.header = strings(row); },
      [&](const DelimitedRow& row) {
        table.rows.push_back(strings(row));
        table.row_lines.push_back(row.line);
      }));
  return table;
}

StatusOr<DelimitedTable> DelimitedReader::ReadFile(
    const std::string& path) const {
  MARAS_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  return ParseString(content);
}

StatusOr<std::string> DelimitedWriter::ToString(
    const DelimitedTable& table) const {
  if (table.header.empty()) {
    return Status::InvalidArgument("table has no header");
  }
  std::string out = Join(table.header, delim_);
  out += '\n';
  for (size_t i = 0; i < table.rows.size(); ++i) {
    if (table.rows[i].size() != table.header.size()) {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     " width mismatch");
    }
    out += Join(table.rows[i], delim_);
    out += '\n';
  }
  return out;
}

Status DelimitedWriter::WriteFile(const std::string& path,
                                  const DelimitedTable& table) const {
  MARAS_ASSIGN_OR_RETURN(std::string content, ToString(table));
  return AtomicWriteStringToFile(path, content);
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("read failed: " + path);
  return buffer.str();
}

Status WriteStringToFile(const std::string& path,
                         const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status AtomicWriteStringToFile(const std::string& path,
                               const std::string& content) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError("cannot open for write: " + tmp);
  size_t written = 0;
  while (written < content.size()) {
    ssize_t n = ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IOError("write failed: " + tmp);
    }
    written += static_cast<size_t>(n);
  }
  // Data must be durable before the rename publishes it; otherwise a crash
  // after the rename could expose a file whose contents never hit disk.
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IOError("fsync failed: " + tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("close failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
}

}  // namespace maras
