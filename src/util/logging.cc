#include "util/logging.h"

#include <cstdlib>
#include <iostream>

namespace maras::internal_logging {

FatalMessage::FatalMessage(const char* file, int line) {
  // Strip directories from the path for compact output.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[FATAL " << base << ":" << line << "] ";
}

FatalMessage::~FatalMessage() {
  stream_ << "\n";
  std::cerr << stream_.str();
  std::cerr.flush();
  std::abort();
}

}  // namespace maras::internal_logging
