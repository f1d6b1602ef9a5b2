#include "util/subprocess.h"

#include <gtest/gtest.h>

#include <errno.h>
#include <signal.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

namespace maras {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// Reads a child's whole transcript by draining its non-blocking pipe until
// EOF — the pattern the shard supervisor uses, minus the poll() multiplex.
std::string DrainUntilEof(ChildProcess& child) {
  std::string out;
  for (;;) {
    auto open = DrainAvailable(child.stdout_fd(), &out);
    if (!open.ok() || !*open) return out;
    std::this_thread::sleep_for(milliseconds(2));
  }
}

TEST(SubprocessTest, CapturesStdoutAndExitCode) {
  auto child = ChildProcess::Spawn({"/bin/sh", "-c", "echo shard-ok; exit 7"});
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  std::string transcript = DrainUntilEof(*child);
  auto status = child->WaitWithDeadline(Deadline::AfterMillis(10000));
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_TRUE(status->exited);
  EXPECT_EQ(status->exit_code, 7);
  EXPECT_FALSE(status->Success());
  EXPECT_EQ(status->Describe(), "exit 7");
  EXPECT_EQ(transcript, "shard-ok\n");
}

TEST(SubprocessTest, MergedStderrLandsInTheSamePipe) {
  auto child =
      ChildProcess::Spawn({"/bin/sh", "-c", "echo to-stderr 1>&2; exit 0"});
  ASSERT_TRUE(child.ok());
  EXPECT_EQ(DrainUntilEof(*child), "to-stderr\n");
  auto status = child->WaitWithDeadline(Deadline::AfterMillis(10000));
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->Success());
}

TEST(SubprocessTest, ExecFailureSurfacesAsExit127) {
  auto child = ChildProcess::Spawn({"/definitely/no/such/binary"});
  ASSERT_TRUE(child.ok()) << "exec failure is the child's, not Spawn's";
  auto status = child->WaitWithDeadline(Deadline::AfterMillis(10000));
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->exited);
  EXPECT_EQ(status->exit_code, 127);
}

TEST(SubprocessTest, EmptyArgvIsRejected) {
  EXPECT_TRUE(ChildProcess::Spawn({}).status().IsInvalidArgument());
}

TEST(SubprocessTest, WaitWithDeadlineKillsAHungChild) {
  auto child = ChildProcess::Spawn({"/bin/sh", "-c", "sleep 600"});
  ASSERT_TRUE(child.ok());
  steady_clock::time_point before = steady_clock::now();
  auto status = child->WaitWithDeadline(Deadline::AfterMillis(100),
                                        /*term_grace=*/milliseconds(500));
  auto elapsed = std::chrono::duration_cast<milliseconds>(
      steady_clock::now() - before);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_TRUE(status->timed_out);
  EXPECT_TRUE(status->signaled);
  EXPECT_FALSE(child->running());
  EXPECT_LT(elapsed, milliseconds(10000))
      << "deadline + grace must bound the wait, not the child's sleep";
  EXPECT_NE(status->Describe().find("timed out"), std::string::npos);
}

TEST(SubprocessTest, KillAndReapStopsARunningChild) {
  auto child = ChildProcess::Spawn({"/bin/sh", "-c", "sleep 600"});
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(child->running());
  auto status = child->KillAndReap();
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_TRUE(status->signaled);
  EXPECT_EQ(status->term_signal, SIGKILL);
  EXPECT_FALSE(child->running());
}

TEST(SubprocessTest, DestructorReapsWithoutLeavingAZombie) {
  pid_t pid = -1;
  {
    auto child = ChildProcess::Spawn({"/bin/sh", "-c", "sleep 600"});
    ASSERT_TRUE(child.ok());
    pid = child->pid();
  }
  // Once the destructor ran, the pid is fully reaped: a direct waitpid has
  // nothing to collect (ECHILD), which is exactly "no zombie left behind".
  int wait_status = 0;
  EXPECT_EQ(waitpid(pid, &wait_status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(SubprocessTest, PollReportsRunningThenReaps) {
  auto child = ChildProcess::Spawn({"/bin/sh", "-c", "sleep 0.2; exit 0"});
  ASSERT_TRUE(child.ok());
  auto first = child->Poll();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(*first) << "child should still be sleeping";
  auto status = child->WaitWithDeadline(Deadline::AfterMillis(10000));
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->Success());
}

TEST(SubprocessTest, CurrentExecutablePathResolvesThisBinary) {
  std::string path = CurrentExecutablePath("fallback");
  EXPECT_TRUE(std::filesystem::exists(path)) << path;
  EXPECT_NE(path.find("util_subprocess_test"), std::string::npos) << path;
}

// ---------------------------------------------------------------------------
// SIGPIPE hardening: writing into a pipe whose reader is gone must surface
// as an EPIPE Status, not kill the process (the default SIGPIPE disposition
// would). This is the exact failure mode of a supervisor writing to a
// crashed worker, or vice versa.
// ---------------------------------------------------------------------------

TEST(SubprocessSignalTest, WriteToDeadReaderIsEpipeNotDeath) {
  IgnoreSigpipeProcessWide();
  int fds[2] = {-1, -1};
  ASSERT_EQ(pipe(fds), 0);
  close(fds[0]);  // the reader is gone
  const std::string payload(1 << 16, 'x');
  const ssize_t written = write(fds[1], payload.data(), payload.size());
  const int write_errno = errno;
  close(fds[1]);
  // Reaching this line at all is the real assertion: without the SIG_IGN
  // disposition the write above would have terminated the test binary.
  ASSERT_EQ(written, -1);
  EXPECT_EQ(write_errno, EPIPE);
}

// ---------------------------------------------------------------------------
// EINTR hardening: a pending-signal storm (here: a 2ms SIGALRM interval
// timer with SA_RESTART deliberately absent) must not surface as short
// reads or spurious waitpid failures — the Retry* wrappers absorb it.
// ---------------------------------------------------------------------------

std::atomic<int> g_alarm_count{0};

extern "C" void CountAlarm(int) { g_alarm_count.fetch_add(1); }

class AlarmStorm {
 public:
  AlarmStorm() {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = CountAlarm;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: syscalls really do fail EINTR
    sigaction(SIGALRM, &action, &previous_);
    struct itimerval timer;
    timer.it_interval.tv_sec = 0;
    timer.it_interval.tv_usec = 2000;
    timer.it_value = timer.it_interval;
    setitimer(ITIMER_REAL, &timer, nullptr);
  }
  ~AlarmStorm() {
    struct itimerval off;
    std::memset(&off, 0, sizeof(off));
    setitimer(ITIMER_REAL, &off, nullptr);
    sigaction(SIGALRM, &previous_, nullptr);
  }

 private:
  struct sigaction previous_;
};

TEST(SubprocessSignalTest, RetryReadSurvivesAnEintrStorm) {
  g_alarm_count = 0;
  AlarmStorm storm;
  int fds[2] = {-1, -1};
  ASSERT_EQ(pipe(fds), 0);
  // The writer shows up late, so the blocking read sits interrupted by the
  // alarm timer many times before any data exists.
  std::thread writer([fd = fds[1]] {
    std::this_thread::sleep_for(milliseconds(150));
    (void)!write(fd, "ping", 4);
    close(fd);
  });
  char buf[16] = {0};
  ssize_t n = RetryRead(fds[0], buf, sizeof(buf));
  writer.join();
  close(fds[0]);
  ASSERT_EQ(n, 4) << (n < 0 ? std::strerror(errno) : "short read");
  EXPECT_EQ(std::string(buf, 4), "ping");
  EXPECT_GT(g_alarm_count.load(), 0)
      << "the storm never fired; this test proved nothing";
}

TEST(SubprocessSignalTest, RetryWaitpidSurvivesAnEintrStorm) {
  g_alarm_count = 0;
  AlarmStorm storm;
  auto child = ChildProcess::Spawn({"/bin/sh", "-c", "sleep 0.15; exit 5"});
  ASSERT_TRUE(child.ok());
  // Blocking reap straight through the alarm storm.
  auto status = child->WaitWithDeadline(Deadline::AfterMillis(10000));
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_TRUE(status->exited);
  EXPECT_EQ(status->exit_code, 5);
  EXPECT_GT(g_alarm_count.load(), 0);
}

}  // namespace
}  // namespace maras
