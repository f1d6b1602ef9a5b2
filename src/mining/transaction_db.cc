#include "mining/transaction_db.h"

#include <algorithm>

namespace maras::mining {

const std::vector<TransactionId> TransactionDatabase::kEmptyTidList = {};

TransactionId TransactionDatabase::Add(Itemset transaction) {
  Itemset t = MakeItemset(std::move(transaction));
  TransactionId tid = static_cast<TransactionId>(transactions_.size());
  if (!t.empty() && static_cast<size_t>(t.back()) >= tidlists_.size()) {
    tidlists_.resize(static_cast<size_t>(t.back()) + 1);
  }
  for (ItemId item : t) {
    std::vector<TransactionId>& list = tidlists_[item];
    if (list.empty()) ++distinct_items_;
    list.push_back(tid);  // tids are appended in order
  }
  total_item_occurrences_ += t.size();
  transactions_.push_back(std::move(t));
  return tid;
}

size_t TransactionDatabase::Support(const Itemset& s) const {
  if (s.empty()) return transactions_.size();
  if (s.size() == 1) return ItemSupport(s[0]);
  return ContainingTransactions(s).size();
}

// Rule generation and closure checks spend most of their time in the
// set_intersection loop below (snapshot publishing intersects tid bitmaps
// instead: core::SupportingReportLists). Its speed depends on where
// the loop falls relative to 64-byte code boundaries, so the function is
// pinned to one: without this, unrelated code-size changes elsewhere in a
// binary moved rules and publish timings by 10-15%.
__attribute__((aligned(64))) std::vector<TransactionId>
TransactionDatabase::ContainingTransactions(const Itemset& s) const {
  std::vector<TransactionId> result;
  if (s.empty()) {
    result.resize(transactions_.size());
    for (size_t i = 0; i < result.size(); ++i) {
      result[i] = static_cast<TransactionId>(i);
    }
    return result;
  }
  // Start from the rarest item's tid list to keep intersections small.
  size_t start = 0;
  size_t best = SIZE_MAX;
  for (size_t i = 0; i < s.size(); ++i) {
    size_t sup = ItemSupport(s[i]);
    if (sup < best) {
      best = sup;
      start = i;
    }
  }
  result = TidList(s[start]);
  for (size_t i = 0; i < s.size() && !result.empty(); ++i) {
    if (i == start) continue;
    const auto& other = TidList(s[i]);
    std::vector<TransactionId> merged;
    merged.reserve(std::min(result.size(), other.size()));
    std::set_intersection(result.begin(), result.end(), other.begin(),
                          other.end(), std::back_inserter(merged));
    result = std::move(merged);
  }
  return result;
}

size_t TransactionDatabase::ItemSupport(ItemId item) const {
  return static_cast<size_t>(item) < tidlists_.size() ? tidlists_[item].size()
                                                      : 0;
}

const std::vector<TransactionId>& TransactionDatabase::TidList(
    ItemId item) const {
  return static_cast<size_t>(item) < tidlists_.size() ? tidlists_[item]
                                                      : kEmptyTidList;
}

}  // namespace maras::mining
