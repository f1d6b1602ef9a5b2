#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace maras {

size_t EffectiveThreads(size_t requested, size_t items) {
  if (requested <= 1 || items <= 1) return 1;
  return std::min(requested, items);
}

Status TryParallelFor(size_t num_threads, size_t n, const RunContext& ctx,
                      const std::function<Status(size_t, size_t)>& fn) {
  const size_t workers = EffectiveThreads(num_threads, n);
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  // Written under error_mu by the workers; read after every worker joined.
  Mutex error_mu;
  Status first_error;
  size_t first_error_index = n;  // n = no error recorded yet
  std::exception_ptr thrown;
  auto worker = [&](size_t slot) {
    try {
      for (size_t i = next.fetch_add(1);
           i < n && !stop.load(std::memory_order_acquire);
           i = next.fetch_add(1)) {
        Status status = ctx.Check();
        if (status.ok()) status = fn(slot, i);
        if (!status.ok()) {
          MutexLock lock(&error_mu);
          if (i < first_error_index) {
            first_error_index = i;
            first_error = std::move(status);
          }
          stop.store(true, std::memory_order_release);
          return;
        }
      }
    } catch (...) {
      MutexLock lock(&error_mu);
      if (!thrown) thrown = std::current_exception();
      stop.store(true, std::memory_order_release);
    }
  };
  if (workers == 1) {
    worker(0);
  } else {
    // Every worker gets its own thread and the caller only joins them:
    // work done on the caller's thread allocates from its malloc arena,
    // and the requests a caller serves after a parallel batch then run
    // measurably slower on the blocks that batch left behind.
    std::vector<std::thread> threads;
    threads.reserve(workers);
    try {
      for (size_t slot = 0; slot < workers; ++slot) {
        threads.emplace_back(worker, slot);
      }
    } catch (...) {
      // A thread failed to start: stop and join the ones that did.
      stop.store(true, std::memory_order_release);
      for (std::thread& thread : threads) thread.join();
      throw;
    }
    for (std::thread& thread : threads) thread.join();
  }
  if (thrown) std::rethrow_exception(thrown);
  return first_error_index < n ? first_error : Status::OK();
}

Status TryParallelFor(size_t num_threads, size_t n, const RunContext& ctx,
                      const std::function<Status(size_t)>& fn) {
  return TryParallelFor(num_threads, n, ctx,
                        [&fn](size_t, size_t i) { return fn(i); });
}

void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t, size_t)>& fn) {
  // Ungoverned and fn cannot fail, so the loop can only return OK.
  MARAS_IGNORE_STATUS(TryParallelFor(num_threads, n, RunContext(),
                                     [&fn](size_t slot, size_t i) {
                                       fn(slot, i);
                                       return Status::OK();
                                     }));
}

void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t)>& fn) {
  ParallelFor(num_threads, n, [&fn](size_t, size_t i) { fn(i); });
}

}  // namespace maras
