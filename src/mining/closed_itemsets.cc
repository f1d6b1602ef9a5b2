#include "mining/closed_itemsets.h"

#include "mining/flat_table.h"
#include "mining/fpgrowth.h"
#include "util/run_context.h"
#include "util/thread_pool.h"

namespace maras::mining {

namespace {

// Appends to `marks` every immediate subset of `fi.items` that `fi` proves
// non-closed (equal support). Pure read of `all`.
void MarkCoveredSubsets(const FrequentItemsetResult& all,
                        const FrequentItemset& fi,
                        std::vector<Itemset>* marks) {
  if (fi.items.size() < 2) return;
  Itemset subset;
  subset.reserve(fi.items.size() - 1);
  for (size_t drop = 0; drop < fi.items.size(); ++drop) {
    subset.clear();
    for (size_t i = 0; i < fi.items.size(); ++i) {
      if (i != drop) subset.push_back(fi.items[i]);
    }
    if (all.SupportOf(subset) == fi.support) {
      marks->push_back(subset);
    }
  }
}

}  // namespace

maras::StatusOr<FrequentItemsetResult> FilterClosed(
    const FrequentItemsetResult& all, size_t num_threads,
    const RunContext& ctx) {
  // Mark every itemset that has an equal-support immediate superset in the
  // result by walking each itemset's immediate subsets. Shard w scans
  // itemsets w, w+shards, ... (one shard per worker, serial = one shard),
  // with a governance poll every 256 scanned itemsets; marks are unioned
  // serially afterwards (union is order-independent, so scheduling cannot
  // leak into the result).
  const std::vector<FrequentItemset>& itemsets = all.itemsets();
  const size_t workers = EffectiveThreads(num_threads, itemsets.size());
  const size_t shards = workers <= 1 ? 1 : workers;
  std::vector<std::vector<Itemset>> shard_marks(shards);
  maras::Status status = TryParallelFor(
      workers, shards, ctx, [&](size_t w) -> maras::Status {
        for (size_t i = w; i < itemsets.size(); i += shards) {
          if ((i / shards) % 256 == 0) {
            MARAS_RETURN_IF_ERROR(ctx.Check());
          }
          MarkCoveredSubsets(all, itemsets[i], &shard_marks[w]);
        }
        return maras::Status::OK();
      });
  if (!status.ok()) return maras::WithContext(status, "closed-filter");
  ItemsetFlatSet not_closed;
  for (std::vector<Itemset>& shard : shard_marks) {
    for (Itemset& s : shard) not_closed.Insert(std::move(s));
  }
  FrequentItemsetResult closed;
  for (const FrequentItemset& fi : all.itemsets()) {
    if (!not_closed.Contains(fi.items)) {
      closed.Add(fi.items, fi.support);
    }
  }
  closed.SortCanonically();
  return closed;
}

FrequentItemsetResult FilterClosed(const FrequentItemsetResult& all,
                                   size_t num_threads) {
  // Ungoverned, so the filter cannot fail.
  return *FilterClosed(all, num_threads, RunContext());
}

Itemset ClosureOf(const TransactionDatabase& db, const Itemset& s) {
  std::vector<TransactionId> tids = db.ContainingTransactions(s);
  if (tids.empty()) return {};
  Itemset closure = db.transaction(tids[0]);
  for (size_t i = 1; i < tids.size() && closure.size() > s.size(); ++i) {
    closure = Intersect(closure, db.transaction(tids[i]));
  }
  return closure;
}

bool IsClosedInDatabase(const TransactionDatabase& db, const Itemset& s) {
  Itemset closure = ClosureOf(db, s);
  return !closure.empty() && closure == s;
}

maras::StatusOr<FrequentItemsetResult> MineClosed(
    const TransactionDatabase& db, const MiningOptions& options) {
  FpGrowth miner(options);
  MARAS_ASSIGN_OR_RETURN(FrequentItemsetResult all, miner.Mine(db));
  const RunContext ungoverned;
  return FilterClosed(all, options.num_threads,
                      options.context != nullptr ? *options.context
                                                 : ungoverned);
}

}  // namespace maras::mining
