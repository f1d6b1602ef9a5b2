// Behavioral tests for the capability-annotated lock wrappers
// (util/mutex.h). The compile-time half of the contract lives in the
// thread-safety compile-fail pair (tests/compile_fail/) and the
// clang-thread-safety CI leg; these tests pin the runtime half — the
// wrappers must forward to the std primitives faithfully: mutual
// exclusion, try-lock semantics, reader concurrency and writer
// exclusivity.
#include "util/mutex.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace maras {
namespace {

TEST(MutexTest, MutualExclusionUnderContention) {
  Mutex mu;
  int counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(MutexTest, TryLockFailsWhileHeldAndSucceedsAfterRelease) {
  Mutex mu;
  mu.Lock();
  std::atomic<int> observed{-1};
  std::thread contender([&] {
    observed.store(mu.TryLock() ? 1 : 0);
    if (observed.load() == 1) mu.Unlock();
  });
  contender.join();
  EXPECT_EQ(observed.load(), 0);
  mu.Unlock();

  std::thread retry([&] {
    observed.store(mu.TryLock() ? 1 : 0);
    if (observed.load() == 1) mu.Unlock();
  });
  retry.join();
  EXPECT_EQ(observed.load(), 1);
}

TEST(SharedMutexTest, ReadersOverlapWritersExclude) {
  SharedMutex mu;
  // Two readers hold the shared capability simultaneously: each waits for
  // the other to arrive before releasing. If LockShared were exclusive,
  // this would deadlock (and trip the ctest timeout).
  std::atomic<int> readers_in{0};
  auto reader = [&] {
    ReaderMutexLock lock(&mu);
    readers_in.fetch_add(1);
    while (readers_in.load() < 2) std::this_thread::yield();
  };
  std::thread r1(reader);
  std::thread r2(reader);
  r1.join();
  r2.join();
  EXPECT_EQ(readers_in.load(), 2);

  // A writer excludes readers: with the exclusive capability held,
  // TryLockShared from another thread must fail.
  mu.Lock();
  std::atomic<bool> reader_entered{false};
  std::thread blocked_reader([&] {
    if (mu.TryLockShared()) {
      reader_entered.store(true);
      mu.UnlockShared();
    }
  });
  blocked_reader.join();
  EXPECT_FALSE(reader_entered.load());
  mu.Unlock();
}

TEST(SharedMutexTest, TryLockRespectsSharedHolders) {
  SharedMutex mu;
  mu.LockShared();
  EXPECT_FALSE(mu.TryLock());      // exclusive blocked by a reader
  EXPECT_TRUE(mu.TryLockShared()); // another reader is fine
  mu.UnlockShared();
  mu.UnlockShared();
  EXPECT_TRUE(mu.TryLock());       // quiescent: exclusive succeeds
  mu.Unlock();
}

}  // namespace
}  // namespace maras
