#ifndef MARAS_UTIL_LOGGING_H_
#define MARAS_UTIL_LOGGING_H_

#include <sstream>

namespace maras {
namespace internal_logging {

// Accumulates one fatal message; on destruction it writes the message to
// stderr and aborts the process.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line);
  ~FatalMessage();

  FatalMessage(const FatalMessage&) = delete;
  FatalMessage& operator=(const FatalMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal_logging

// Unconditional invariant check (enabled in all build types).
#define MARAS_CHECK(cond)                                                   \
  while (!(cond))                                                           \
  ::maras::internal_logging::FatalMessage(__FILE__, __LINE__).stream()      \
      << "Check failed: " #cond " "

}  // namespace maras

#endif  // MARAS_UTIL_LOGGING_H_
