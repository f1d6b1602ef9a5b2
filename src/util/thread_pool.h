#ifndef MARAS_UTIL_THREAD_POOL_H_
#define MARAS_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>

#include "util/run_context.h"
#include "util/status.h"

namespace maras {

// Worker count a parallel region should actually use: 0 and 1 both mean
// serial, and the fan-out never exceeds the number of work items.
size_t EffectiveThreads(size_t requested, size_t items);

// The one parallel loop. Runs fn(slot, 0), ..., fn(slot, n-1) over
// EffectiveThreads(num_threads, n) workers, all taking indices from one
// atomic counter (no task queue, no per-index task overhead). With one
// worker every call runs inline on the caller's thread, in index order;
// with more, each worker is a thread started for this call and the caller
// waits for them to join.
//
// `slot` names the worker running the call, in [0, workers); two calls with
// the same slot never overlap, and the serial path uses slot 0, so a caller
// can keep per-worker scratch in a plain vector indexed by slot.
//
// Before handing out each index, workers poll `ctx` (cancellation /
// deadline / memory budget) and a shared stop flag; once either trips, no
// further index is scheduled — indices already running finish normally.
// Error choice is first-error-wins with lowest-index preference: among the
// failures actually observed, the one with the smallest index is returned
// (so a lone failing shard yields a deterministic result at any thread
// count, and the serial path returns the first failure in index order). A
// governance trip reports the RunContext status itself. An exception thrown
// by fn also stops index hand-out and is rethrown once every worker has
// joined. Determinism is the caller's contract: fn must write only to
// caller-owned, index- or slot-addressed state.
Status TryParallelFor(size_t num_threads, size_t n, const RunContext& ctx,
                      const std::function<Status(size_t slot, size_t i)>& fn);
Status TryParallelFor(size_t num_threads, size_t n, const RunContext& ctx,
                      const std::function<Status(size_t i)>& fn);

// The same loop, ungoverned (an empty RunContext) and infallible.
void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t slot, size_t i)>& fn);
void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t i)>& fn);

}  // namespace maras

#endif  // MARAS_UTIL_THREAD_POOL_H_
