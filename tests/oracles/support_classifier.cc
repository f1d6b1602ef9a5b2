#include "tests/oracles/support_classifier.h"

#include "mining/closed_itemsets.h"

namespace maras::core {

const char* SupportKindName(SupportKind kind) {
  switch (kind) {
    case SupportKind::kExplicit:
      return "explicit";
    case SupportKind::kImplicit:
      return "implicit";
    case SupportKind::kUnsupported:
      return "unsupported";
    case SupportKind::kAbsent:
      return "absent";
  }
  return "?";
}

SupportKind ClassifySupport(const mining::TransactionDatabase& db,
                            const mining::Itemset& s) {
  std::vector<mining::TransactionId> tids = db.ContainingTransactions(s);
  if (tids.empty()) return SupportKind::kAbsent;
  for (mining::TransactionId tid : tids) {
    if (db.transaction(tid).size() == s.size()) {
      // Containment plus equal size means exact equality.
      return SupportKind::kExplicit;
    }
  }
  if (tids.size() < 2) return SupportKind::kUnsupported;
  // Closure check: intersect all containing transactions.
  mining::Itemset closure = db.transaction(tids[0]);
  for (size_t i = 1; i < tids.size() && closure.size() > s.size(); ++i) {
    closure = mining::Intersect(closure, db.transaction(tids[i]));
  }
  return closure == s ? SupportKind::kImplicit : SupportKind::kUnsupported;
}

bool IsSupported(const mining::TransactionDatabase& db,
                 const mining::Itemset& s) {
  SupportKind kind = ClassifySupport(db, s);
  return kind == SupportKind::kExplicit || kind == SupportKind::kImplicit;
}

bool HasPairwiseWitness(const mining::TransactionDatabase& db,
                        const mining::Itemset& s) {
  std::vector<mining::TransactionId> tids = db.ContainingTransactions(s);
  for (size_t i = 0; i < tids.size(); ++i) {
    const mining::Itemset& a = db.transaction(tids[i]);
    for (size_t j = i + 1; j < tids.size(); ++j) {
      if (mining::Intersect(a, db.transaction(tids[j])) == s) return true;
    }
  }
  return false;
}

}  // namespace maras::core
