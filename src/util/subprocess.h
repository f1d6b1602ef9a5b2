#ifndef MARAS_UTIL_SUBPROCESS_H_
#define MARAS_UTIL_SUBPROCESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "util/run_context.h"
#include "util/status.h"
#include "util/statusor.h"

namespace maras {

// ---------------------------------------------------------------------------
// Process plumbing for the sharded pipeline. Everything that touches raw
// fork/exec, pipes, signals, or waitpid in this codebase lives here — the
// `no-raw-subprocess` lint rule enforces it — so the EINTR/SIGPIPE/zombie
// hygiene is audited once instead of at every call site. The shard
// supervisor (core/shard_supervisor.h) builds on these primitives; nothing
// here knows about mining.
//
// Signal-safety contract: between fork and exec the child calls only
// async-signal-safe functions (dup2/close/execvp/_exit), so spawning from a
// process with live threads (a test running under a thread pool) is safe.
// ---------------------------------------------------------------------------

// Ignores SIGPIPE for the whole process. A worker whose supervisor died —
// or a supervisor whose worker closed its pipe mid-write — must see EPIPE
// from write() and turn it into a Status, not die from the default SIGPIPE
// disposition. Idempotent; drivers call it first thing in main().
void IgnoreSigpipeProcessWide();

// read(fd, ...) retrying on EINTR. Any signal delivery (a SIGCHLD from
// another worker, a profiler tick) can interrupt a blocking read with EINTR;
// this retries until the call completes or fails for a real reason. Returns
// bytes read (0 = EOF) or -1 with errno set to the non-EINTR failure.
// Reaping (waitpid) retries on EINTR the same way inside ChildProcess.
ssize_t RetryRead(int fd, void* buf, size_t count);

// Non-blocking drain: appends whatever is currently readable to `out` and
// returns true while the stream is still open, false once EOF was seen.
// The fd must be O_NONBLOCK (ChildProcess sets its pipe up that way).
StatusOr<bool> DrainAvailable(int fd, std::string* out);

// Absolute path of the running executable (/proc/self/exe), so a test or
// driver can re-invoke itself as a shard worker. Falls back to `argv0`
// when the platform does not expose it.
std::string CurrentExecutablePath(const std::string& argv0);

// ---------------------------------------------------------------------------
// One spawned child process.
// ---------------------------------------------------------------------------

// How a child ended. Default state means "not reaped yet".
struct ExitStatus {
  bool exited = false;     // normal termination; exit_code is valid
  int exit_code = -1;
  bool signaled = false;   // killed by a signal; term_signal is valid
  int term_signal = 0;
  bool timed_out = false;  // the deadline kill in WaitWithDeadline fired

  bool Success() const { return exited && exit_code == 0; }
  // "exit 3", "signal 9 (timed out)", ... for diagnostics.
  std::string Describe() const;
};

class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();  // kills (SIGKILL) and reaps a still-running child

  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ChildProcess(ChildProcess&& other) noexcept;

  // fork + execvp. argv[0] is the executable (PATH-searched). The child's
  // stdin is /dev/null. Exec failure surfaces as exit code 127. The child's
  // stdout is captured through a pipe (read it via stdout_fd()), whose
  // parent end is O_NONBLOCK | O_CLOEXEC: the supervisor polls it for
  // heartbeats with a timeout and must never block on it. Both ends are
  // created close-on-exec, so concurrent spawns from several threads never
  // leak one child's pipe into another. Its stderr goes into the same pipe
  // (2>&1), keeping a worker's diagnostics attached to its transcript
  // instead of interleaving on the supervisor's terminal.
  static StatusOr<ChildProcess> Spawn(const std::vector<std::string>& argv);

  pid_t pid() const { return pid_; }
  // Parent end of the stdout pipe; -1 once closed.
  int stdout_fd() const { return stdout_fd_; }
  // True until the child has been reaped.
  bool running() const { return pid_ > 0 && !reaped_; }
  // Exit state; meaningful once running() is false.
  const ExitStatus& exit_status() const { return exit_; }

  // Non-blocking reap (WNOHANG). True when the child has exited and was
  // reaped; false when it is still running.
  StatusOr<bool> Poll();

  // Blocks until the child exits or `deadline` expires. On expiry the
  // child gets SIGTERM, then SIGKILL after `term_grace`, and the reaped
  // status is tagged timed_out. Reaping always succeeds eventually:
  // SIGKILL cannot be ignored.
  StatusOr<ExitStatus> WaitWithDeadline(
      const Deadline& deadline,
      std::chrono::milliseconds term_grace = std::chrono::milliseconds(2000));

  // Sends `sig` to the child (no reap).
  Status Kill(int sig);

  // SIGKILL + blocking reap. Used by the supervisor for hung workers and
  // first-error-wins cancellation.
  StatusOr<ExitStatus> KillAndReap();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  bool reaped_ = false;
  ExitStatus exit_;
};

}  // namespace maras

#endif  // MARAS_UTIL_SUBPROCESS_H_
