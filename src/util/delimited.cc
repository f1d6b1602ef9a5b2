#include "util/delimited.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "util/string_util.h"

namespace maras {

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

StatusOr<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open for read: " + path);
  // Sized once from fstat and read in place. Whatever lies past that size
  // (a file that grew, or one that reports no size, such as a pipe) is
  // read through a small buffer until end of file.
  struct stat info {};
  std::string content;
  if (::fstat(fd, &info) == 0 && info.st_size > 0) {
    content.resize(static_cast<size_t>(info.st_size));
  }
  size_t filled = 0;
  char overflow[4096];
  for (;;) {
    const bool in_place = filled < content.size();
    const ssize_t got =
        in_place ? ::read(fd, content.data() + filled, content.size() - filled)
                 : ::read(fd, overflow, sizeof(overflow));
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError("read failed: " + path);
    }
    if (got == 0) break;
    if (!in_place) content.append(overflow, static_cast<size_t>(got));
    filled += static_cast<size_t>(got);
  }
  ::close(fd);
  content.resize(filled);
  return content;
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
