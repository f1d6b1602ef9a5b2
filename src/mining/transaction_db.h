#ifndef MARAS_MINING_TRANSACTION_DB_H_
#define MARAS_MINING_TRANSACTION_DB_H_

#include <cstdint>
#include <vector>

#include "mining/itemset.h"

namespace maras::mining {

using TransactionId = uint32_t;

// A transaction database: each transaction is a sorted itemset (for MARAS,
// one abstracted ADR report = drugs taken ∪ ADRs observed). Alongside the
// horizontal layout it maintains a vertical index (item -> sorted tid list)
// so the support of an arbitrary itemset can be counted exactly by tid-list
// intersection — the paper's contextual rules need supports for antecedent
// subsets that may fall below the mining threshold. The vertical index is a
// flat ItemId-indexed array of tid lists (items are dense interned ids), so
// a TidList lookup is one bounds check and one vector index — the access
// every bitmap build and batched contingency pass starts from.
class TransactionDatabase {
 public:
  TransactionDatabase() = default;

  // Builds a database of `transactions` (each deduplicated and sorted
  // internally), with tid i for transactions[i]. Counts every item's
  // occurrences first, so each tid list is allocated once at its exact
  // size; equal to Add-ing the transactions in order.
  static TransactionDatabase Build(std::vector<Itemset> transactions);

  // Adds a transaction (deduplicated and sorted internally). Returns its id.
  TransactionId Add(Itemset transaction);

  size_t size() const { return transactions_.size(); }
  bool empty() const { return transactions_.empty(); }

  const Itemset& transaction(TransactionId tid) const {
    return transactions_[tid];
  }
  const std::vector<Itemset>& transactions() const { return transactions_; }

  // Number of distinct items seen.
  size_t item_count() const { return distinct_items_; }

  // One past the largest ItemId seen (0 when empty). Sizes the dense,
  // ItemId-indexed tables the mining engine uses (FP-tree headers and
  // conditional counts) without a scan.
  size_t item_bound() const { return tidlists_.size(); }

  // Total item occurrences across all transactions (Σ |t|). Upper-bounds
  // FP-tree node counts, so a build can bulk-reserve its arena.
  size_t total_item_occurrences() const { return total_item_occurrences_; }

  // Support (number of containing transactions) of an itemset. Empty itemset
  // has support == size().
  size_t Support(const Itemset& s) const;

  // Ids of the transactions containing `s`, in increasing order.
  std::vector<TransactionId> ContainingTransactions(const Itemset& s) const;

  // Support of a single item (0 when never seen).
  size_t ItemSupport(ItemId item) const;

  // Sorted tid list of `item` (empty when never seen).
  const std::vector<TransactionId>& TidList(ItemId item) const;

 private:
  std::vector<Itemset> transactions_;
  // tidlists_[item] is item's sorted tid list; never-seen items within the
  // bound hold an empty vector. size() doubles as item_bound().
  std::vector<std::vector<TransactionId>> tidlists_;
  size_t distinct_items_ = 0;
  size_t total_item_occurrences_ = 0;
  static const std::vector<TransactionId> kEmptyTidList;
};

}  // namespace maras::mining

#endif  // MARAS_MINING_TRANSACTION_DB_H_
