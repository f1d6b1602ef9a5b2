#include "util/subprocess.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <thread>
#include <utility>

namespace maras {

namespace {

Status ErrnoStatus(const std::string& what, int err) {
  return Status::IOError(what + ": " + std::strerror(err));
}

// Closes `fd` retrying on EINTR; best-effort (POSIX leaves the fd state
// after EINTR unspecified, and a second failure has no caller recourse).
void CloseQuietly(int fd) {
  if (fd < 0) return;
  while (close(fd) == -1 && errno == EINTR) {
  }
}

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags != -1) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// waitpid(pid, ...) retrying on EINTR. Returns the reaped pid, 0 (WNOHANG,
// still running), or -1.
pid_t RetryWaitpid(pid_t pid, int* status, int options) {
  for (;;) {
    pid_t got = waitpid(pid, status, options);
    if (got >= 0 || errno != EINTR) return got;
  }
}

// Converts a raw waitpid status word into an ExitStatus.
ExitStatus FromWaitStatus(int wait_status) {
  ExitStatus exit;
  if (WIFEXITED(wait_status)) {
    exit.exited = true;
    exit.exit_code = WEXITSTATUS(wait_status);
  } else if (WIFSIGNALED(wait_status)) {
    exit.signaled = true;
    exit.term_signal = WTERMSIG(wait_status);
  }
  return exit;
}

}  // namespace

void IgnoreSigpipeProcessWide() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = SIG_IGN;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPIPE, &action, nullptr);
}

ssize_t RetryRead(int fd, void* buf, size_t count) {
  for (;;) {
    ssize_t n = read(fd, buf, count);
    if (n >= 0 || errno != EINTR) return n;
  }
}

StatusOr<bool> DrainAvailable(int fd, std::string* out) {
  char buf[4096];
  for (;;) {
    ssize_t n = RetryRead(fd, buf, sizeof(buf));
    if (n > 0) {
      out->append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return false;  // EOF: the writer is gone
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return ErrnoStatus("read", errno);
  }
}

std::string CurrentExecutablePath(const std::string& argv0) {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) return std::string(buf, static_cast<size_t>(n));
  return argv0;
}

std::string ExitStatus::Describe() const {
  std::string out;
  if (exited) {
    out = "exit " + std::to_string(exit_code);
  } else if (signaled) {
    out = "signal " + std::to_string(term_signal);
  } else {
    out = "running";
  }
  if (timed_out) out += " (timed out)";
  return out;
}

ChildProcess::~ChildProcess() {
  if (running()) {
    // A destructed handle must never leak a zombie or an orphan worker.
    StatusOr<ExitStatus> reaped = KillAndReap();
    (void)reaped;
  }
  if (stdout_fd_ >= 0) CloseQuietly(stdout_fd_);
}

ChildProcess::ChildProcess(ChildProcess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      stdout_fd_(std::exchange(other.stdout_fd_, -1)),
      reaped_(std::exchange(other.reaped_, false)),
      exit_(other.exit_) {}

StatusOr<ChildProcess> ChildProcess::Spawn(
    const std::vector<std::string>& argv) {
  if (argv.empty()) {
    return Status::InvalidArgument("empty argv");
  }
  // Both ends are close-on-exec from birth: a child that another thread
  // forks before this parent closes its write end must not carry that end
  // past its exec, or this child's EOF waits for that one to exit.
  int pipe_fds[2] = {-1, -1};
  if (pipe2(pipe_fds, O_CLOEXEC) == -1) {
    return ErrnoStatus("pipe", errno);
  }

  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);

  // maras-lint: disable=no-raw-subprocess — this IS the sanctioned wrapper.
  pid_t pid = fork();
  if (pid == -1) {
    int err = errno;
    CloseQuietly(pipe_fds[0]);
    CloseQuietly(pipe_fds[1]);
    return ErrnoStatus("fork", err);
  }
  if (pid == 0) {
    // Child. Async-signal-safe territory: dup2/close/open/execvp/_exit only.
    int devnull = open("/dev/null", O_RDONLY);
    if (devnull != -1) {
      dup2(devnull, STDIN_FILENO);
      if (devnull > STDERR_FILENO) close(devnull);
    }
    close(pipe_fds[0]);
    dup2(pipe_fds[1], STDOUT_FILENO);
    dup2(pipe_fds[1], STDERR_FILENO);
    if (pipe_fds[1] > STDERR_FILENO) close(pipe_fds[1]);
    // maras-lint: disable=no-raw-subprocess — sanctioned wrapper interior.
    execvp(cargv[0], cargv.data());
    _exit(127);  // exec failed; 127 matches the shell convention
  }

  // Parent.
  ChildProcess child;
  child.pid_ = pid;
  CloseQuietly(pipe_fds[1]);
  SetNonBlocking(pipe_fds[0]);
  child.stdout_fd_ = pipe_fds[0];
  return child;
}

StatusOr<bool> ChildProcess::Poll() {
  if (!running()) return true;
  int wait_status = 0;
  pid_t got = RetryWaitpid(pid_, &wait_status, WNOHANG);
  if (got == -1) return ErrnoStatus("waitpid", errno);
  if (got == 0) return false;
  exit_ = FromWaitStatus(wait_status);
  reaped_ = true;
  return true;
}

StatusOr<ExitStatus> ChildProcess::WaitWithDeadline(
    const Deadline& deadline, std::chrono::milliseconds term_grace) {
  if (!running()) return exit_;
  // Poll-loop rather than SIGCHLD machinery: the supervisor owns several
  // children and per-child signal plumbing buys nothing at this scale. The
  // interval is short enough that reap latency is negligible next to a
  // worker's runtime.
  constexpr std::chrono::milliseconds kPollInterval(5);
  while (!deadline.Expired()) {
    MARAS_ASSIGN_OR_RETURN(bool done, Poll());
    if (done) return exit_;
    std::this_thread::sleep_for(
        std::min<std::chrono::milliseconds>(kPollInterval,
                                            deadline.Remaining()));
  }
  // Deadline passed: escalate SIGTERM -> SIGKILL.
  MARAS_RETURN_IF_ERROR(Kill(SIGTERM));
  Deadline grace = Deadline::After(term_grace);
  while (!grace.Expired()) {
    MARAS_ASSIGN_OR_RETURN(bool done, Poll());
    if (done) {
      exit_.timed_out = true;
      return exit_;
    }
    std::this_thread::sleep_for(kPollInterval);
  }
  MARAS_ASSIGN_OR_RETURN(ExitStatus status, KillAndReap());
  exit_ = status;
  exit_.timed_out = true;
  return exit_;
}

Status ChildProcess::Kill(int sig) {
  if (!running()) return Status::OK();
  if (kill(pid_, sig) == -1 && errno != ESRCH) {
    return ErrnoStatus("kill", errno);
  }
  return Status::OK();
}

StatusOr<ExitStatus> ChildProcess::KillAndReap() {
  if (!running()) return exit_;
  MARAS_RETURN_IF_ERROR(Kill(SIGKILL));
  int wait_status = 0;
  pid_t got = RetryWaitpid(pid_, &wait_status, 0);
  if (got == -1) return ErrnoStatus("waitpid", errno);
  exit_ = FromWaitStatus(wait_status);
  reaped_ = true;
  return exit_;
}

}  // namespace maras
