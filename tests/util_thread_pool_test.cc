#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/run_context.h"

namespace maras {
namespace {

TEST(EffectiveThreadsTest, SerialAndClampedCases) {
  EXPECT_EQ(EffectiveThreads(0, 100), 1u);
  EXPECT_EQ(EffectiveThreads(1, 100), 1u);
  EXPECT_EQ(EffectiveThreads(8, 0), 1u);
  EXPECT_EQ(EffectiveThreads(8, 1), 1u);
  EXPECT_EQ(EffectiveThreads(8, 3), 3u);
  EXPECT_EQ(EffectiveThreads(4, 100), 4u);
}

class ParallelForThreadSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelForThreadSweep, TouchesEveryIndexExactlyOnce) {
  const size_t n = 500;
  std::vector<int> touched(n, 0);
  ParallelFor(GetParam(), n, [&touched](size_t i) { touched[i] += 1; });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(touched[i], 1) << "index " << i;
  }
}

TEST_P(ParallelForThreadSweep, OrderedResultCollection) {
  // Index-addressed writes come back in index order whatever the schedule.
  const size_t n = 200;
  std::vector<size_t> squares(n);
  ParallelFor(GetParam(), n, [&squares](size_t i) { squares[i] = i * i; });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelForThreadSweep,
                         ::testing::Values(0, 1, 2, 4, 8));

TEST(ParallelForTest, EmptyRangeIsNoOp) {
  bool called = false;
  ParallelFor(4, 0, [&called](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, ExceptionPropagatesWithoutDeadlock) {
  EXPECT_THROW(
      ParallelFor(4, 100,
                  [](size_t i) {
                    if (i == 17) throw std::runtime_error("index 17");
                  }),
      std::runtime_error);
  // Serial path propagates too.
  EXPECT_THROW(
      ParallelFor(1, 10,
                  [](size_t i) {
                    if (i == 3) throw std::runtime_error("index 3");
                  }),
      std::runtime_error);
}

class TryParallelForThreadSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(TryParallelForThreadSweep, OkRunsEveryIndexOnce) {
  const size_t n = 500;
  RunContext ctx;
  std::vector<int> hits(n, 0);
  Status status = TryParallelFor(GetParam(), n, ctx, [&hits](size_t i) {
    ++hits[i];
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST_P(TryParallelForThreadSweep, LoneFailureWinsAtAnyThreadCount) {
  RunContext ctx;
  Status status = TryParallelFor(GetParam(), 300, ctx, [](size_t i) {
    if (i == 123) return Status::InvalidArgument("shard 123 failed");
    return Status::OK();
  });
  ASSERT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.ToString().find("shard 123"), std::string::npos);
}

TEST_P(TryParallelForThreadSweep, LowestObservedIndexPreferred) {
  // Every index fails; the reported error must be the lowest-index failure
  // actually observed. At any thread count index 0 is observed (it is
  // scheduled first and workers record every failure they see), so the
  // result is deterministic.
  RunContext ctx;
  Status status = TryParallelFor(GetParam(), 64, ctx, [](size_t i) {
    return Status::Internal("index " + std::to_string(i));
  });
  ASSERT_TRUE(status.IsInternal()) << status.ToString();
  EXPECT_NE(status.ToString().find("index 0"), std::string::npos)
      << status.ToString();
}

TEST_P(TryParallelForThreadSweep, ExceptionSurfacesAfterEveryWorkerJoined) {
  // Index 5 throws. A call that starts after the throw sleeps long enough
  // for the stop flag to land, so each other worker can start at most the
  // one index it had already claimed; the exception must reach the caller
  // only once every running call has returned.
  const size_t n = 10'000;
  const size_t workers = EffectiveThreads(GetParam(), n);
  std::atomic<bool> thrown{false};
  std::atomic<size_t> running{0};
  std::atomic<size_t> started_after_throw{0};
  std::atomic<size_t> finished{0};
  RunContext ctx;
  EXPECT_THROW(
      {
        Status status = TryParallelFor(
            GetParam(), n, ctx, [&](size_t i) -> Status {
              running.fetch_add(1);
              if (i == 5) {
                thrown.store(true);
                running.fetch_sub(1);
                throw std::runtime_error("index 5");
              }
              if (thrown.load()) {
                started_after_throw.fetch_add(1);
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
              }
              finished.fetch_add(1);
              running.fetch_sub(1);
              return Status::OK();
            });
        ADD_FAILURE() << "returned " << status.ToString();
      },
      std::runtime_error);
  EXPECT_EQ(running.load(), 0u) << "exception surfaced before a join";
  EXPECT_LE(started_after_throw.load(), workers - 1);
  if (workers == 1) {
    EXPECT_EQ(finished.load(), 5u);  // indices 0..4
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, TryParallelForThreadSweep,
                         ::testing::Values(1, 2, 4, 8));

class WorkerSlotSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(WorkerSlotSweep, SlotsStayInRangeAndNeverOverlap) {
  const size_t n = 2'000;
  const size_t workers = EffectiveThreads(GetParam(), n);
  std::vector<std::atomic<int>> busy(workers);
  std::atomic<size_t> out_of_range{0};
  std::atomic<size_t> overlaps{0};
  std::vector<size_t> slot_of(n, workers);
  RunContext ctx;
  Status status =
      TryParallelFor(GetParam(), n, ctx, [&](size_t slot, size_t i) {
        slot_of[i] = slot;
        if (slot >= workers) {
          out_of_range.fetch_add(1);
          return Status::OK();
        }
        if (busy[slot].exchange(1) != 0) overlaps.fetch_add(1);
        std::this_thread::yield();
        busy[slot].store(0);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out_of_range.load(), 0u);
  EXPECT_EQ(overlaps.load(), 0u);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_LT(slot_of[i], workers) << "index " << i << " never ran";
    if (workers == 1) {
      ASSERT_EQ(slot_of[i], 0u) << "serial path uses slot 0";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, WorkerSlotSweep,
                         ::testing::Values(1, 2, 8));

TEST(TryParallelForTest, SerialRunsEveryCallOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  for (size_t threads : {0u, 1u}) {
    SCOPED_TRACE(threads);
    std::vector<size_t> order;
    size_t elsewhere = 0;
    RunContext ctx;
    Status status =
        TryParallelFor(threads, 50, ctx, [&](size_t slot, size_t i) {
          if (std::this_thread::get_id() != caller || slot != 0) ++elsewhere;
          order.push_back(i);
          return Status::OK();
        });
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(elsewhere, 0u);
    std::vector<size_t> expected(50);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
  }
}

TEST(TryParallelForTest, FailureStopsSchedulingRemainingIndices) {
  std::atomic<size_t> executed{0};
  RunContext ctx;
  Status status = TryParallelFor(4, 100'000, ctx, [&executed](size_t i) {
    executed.fetch_add(1);
    if (i == 0) return Status::Internal("early failure");
    return Status::OK();
  });
  ASSERT_TRUE(status.IsInternal()) << status.ToString();
  // The stop flag halts index hand-out: only indices already claimed when
  // the failure landed may still run, far fewer than the full range.
  EXPECT_LT(executed.load(), 100'000u);
}

TEST(TryParallelForTest, CancellationStopsSchedulingMidRun) {
  CancellationToken token;
  RunContext ctx;
  ctx.cancel = &token;
  std::atomic<size_t> executed{0};
  Status status = TryParallelFor(4, 100'000, ctx, [&](size_t i) {
    if (i == 10) token.Cancel();  // a worker observes an external cancel
    executed.fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_LT(executed.load(), 100'000u);
}

TEST(TryParallelForTest, SerialPathStopsAtFirstFailureInOrder) {
  RunContext ctx;
  std::vector<size_t> ran;
  Status status = TryParallelFor(1, 10, ctx, [&ran](size_t i) {
    ran.push_back(i);
    if (i == 3) return Status::NotFound("index 3");
    return Status::OK();
  });
  ASSERT_TRUE(status.IsNotFound()) << status.ToString();
  EXPECT_EQ(ran, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(TryParallelForTest, DeadlineTripSurfacesAsDeadlineExceeded) {
  RunContext ctx;
  ctx.deadline = Deadline::AfterMillis(0);  // already expired
  std::atomic<size_t> executed{0};
  Status status = TryParallelFor(4, 1000, ctx, [&executed](size_t) {
    executed.fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_EQ(executed.load(), 0u) << "expired deadline must stop scheduling";
}

TEST(TryParallelForTest, EmptyRangeIsOkWithoutCallingFn) {
  RunContext ctx;
  bool called = false;
  Status status = TryParallelFor(8, 0, ctx, [&called](size_t) {
    called = true;
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace maras
