#ifndef MARAS_TESTS_ORACLES_SUPPORT_CLASSIFIER_H_
#define MARAS_TESTS_ORACLES_SUPPORT_CLASSIFIER_H_

#include <cstddef>

#include "mining/itemset.h"
#include "mining/transaction_db.h"

// Test-only: no production path classifies support. The analyzer relies on
// Lemma 3.4.2 (closed => supported) instead; the tests check it here.

namespace maras::core {

// The three association types of Section 3.3.
//
// A note on Definition 3.3.2 ("implicitly supported": two reports whose
// intersection is exactly A ∪ B). The paper's Lemma 3.4.2 proof actually
// establishes the slightly weaker property that a closed itemset is either a
// whole report (explicit) or is pinned down by multiple reports jointly —
// i.e. the intersection of ALL reports containing S equals S (closure
// equality). The literal two-report version does not follow from closedness
// (three reports can pin S down pairwise-ambiguously), so MARAS uses the
// closure interpretation operationally and exposes the strict pairwise
// witness check separately for analysis.
enum class SupportKind {
  // Def 3.3.1: some report's complete item content equals A ∪ B exactly.
  kExplicit,
  // Closure interpretation of Def 3.3.2: ≥ 2 reports contain A ∪ B and
  // their overall intersection is exactly A ∪ B (no exact-match report).
  kImplicit,
  // Neither — a partial (type-3) association conveying misleading
  // information; MARAS discards these.
  kUnsupported,
  // The itemset occurs in no report at all.
  kAbsent,
};

const char* SupportKindName(SupportKind kind);

// Classifies the complete itemset of a rule against the report database in
// O(|tidlist(S)| · max|t|).
SupportKind ClassifySupport(const mining::TransactionDatabase& db,
                            const mining::Itemset& complete_itemset);

// Lemma 3.4.2 in executable form: closed ⟹ supported. True when
// ClassifySupport returns kExplicit or kImplicit.
bool IsSupported(const mining::TransactionDatabase& db,
                 const mining::Itemset& complete_itemset);

// Strict pairwise Def 3.3.2: do two reports t1, t2 exist with
// (t1.D ∪ t1.A) ∩ (t2.D ∪ t2.A) ≡ S? Quadratic in |tidlist(S)|; intended
// for tests and diagnostics, not the mining path.
bool HasPairwiseWitness(const mining::TransactionDatabase& db,
                        const mining::Itemset& complete_itemset);

}  // namespace maras::core

#endif  // MARAS_TESTS_ORACLES_SUPPORT_CLASSIFIER_H_
