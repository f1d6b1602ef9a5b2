// Differential fuzz harness for the concept lattice. The input decodes
// into a small transaction database (every byte string is a valid corpus:
// one byte = one transaction's item bitmask over a <=7-item universe), the
// closed family is mined twice — uncapped and with a small size cap — and
// the lattice built from each is checked against brute-force oracles: node
// set == closed family with exact supports, covering edges == the Hasse
// diagram of strict inclusion, Subsets/Supersets mutually transposed, build
// byte-identical at 1 and 2 threads. The capped family keeps pseudo-closed
// sets at the cap and need not be closed under intersection; the covers
// must be exact anyway. On the uncapped family only (where its
// precondition holds), the property MCAC construction rests on:
// DescendToClosure from any closed node returns a node that contains the
// queried subset and whose support equals the subset's database support.
// Any disagreement traps: a wrong lattice walk silently mis-measures
// contextual rules rather than crashing.
//
// Input layout:
//   [0]    universe size selector (2..7 items)
//   [1]    min_support selector (1..3, from [1] % 3) and size cap of the
//          second mine (2..4, from [1] / 3 % 3)
//   [2..]  one transaction per byte (bitmask over the universe; zero-mask
//          bytes yield empty transactions and are skipped), capped at 64

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "fuzz/fuzz_target.h"
#include "mining/closed_itemsets.h"
#include "mining/concept_lattice.h"
#include "mining/frequent_itemsets.h"
#include "mining/itemset.h"
#include "mining/transaction_db.h"
#include "util/run_context.h"

namespace {

using maras::mining::ConceptLattice;
using maras::mining::Itemset;

void Require(bool ok) {
  if (!ok) __builtin_trap();
}

Itemset MaskToItemset(uint8_t mask, size_t universe) {
  Itemset items;
  for (size_t i = 0; i < universe; ++i) {
    if (mask & (1u << i)) items.push_back(static_cast<maras::mining::ItemId>(i));
  }
  return items;
}

Itemset SpanToItemset(std::span<const maras::mining::ItemId> span) {
  return Itemset(span.begin(), span.end());
}

bool IsProperSubset(const Itemset& a, const Itemset& b) {
  return a.size() < b.size() && maras::mining::IsSubset(a, b);
}

// Checks the lattice of `closed` (mined from `db`) against the brute-force
// oracles; the descent only when `exact_descent` (an uncapped mine).
void CheckLattice(const maras::mining::TransactionDatabase& db,
                  const maras::mining::FrequentItemsetResult& closed,
                  bool exact_descent) {
  const maras::RunContext ctx;
  auto built = ConceptLattice::Build(closed, /*num_threads=*/1, ctx);
  Require(built.ok());
  const ConceptLattice& lattice = *built;

  // Nodes mirror the closed family, in canonical order, supports exact.
  const auto& family = closed.itemsets();
  Require(lattice.node_count() == family.size());
  for (uint32_t n = 0; n < lattice.node_count(); ++n) {
    Require(SpanToItemset(lattice.NodeItems(n)) == family[n].items);
    Require(lattice.NodeSupport(n) == family[n].support);
    Require(lattice.NodeSupport(n) == db.Support(family[n].items));
    Require(lattice.FindNode(family[n].items) == n);
  }

  // Covering edges == brute-force Hasse diagram; Supersets transposes
  // Subsets; edge_count counts each edge once.
  size_t edges = 0;
  for (uint32_t n = 0; n < lattice.node_count(); ++n) {
    std::vector<uint32_t> want;
    for (uint32_t m = 0; m < lattice.node_count(); ++m) {
      if (!IsProperSubset(family[m].items, family[n].items)) continue;
      bool maximal = true;
      for (uint32_t k = 0; k < lattice.node_count() && maximal; ++k) {
        maximal = !(IsProperSubset(family[m].items, family[k].items) &&
                    IsProperSubset(family[k].items, family[n].items));
      }
      if (maximal) want.push_back(m);
    }
    const auto got = lattice.Subsets(n);
    Require(got.size() == want.size());
    for (size_t i = 0; i < want.size(); ++i) Require(got[i] == want[i]);
    edges += want.size();
    for (uint32_t m : want) {
      bool found = false;
      for (uint32_t up : lattice.Supersets(m)) found = found || up == n;
      Require(found);
    }
  }
  Require(lattice.edge_count() == edges);

  // Build is a pure function of the family: 2-thread build is identical.
  auto built2 = ConceptLattice::Build(closed, /*num_threads=*/2, ctx);
  Require(built2.ok());
  Require(built2->node_count() == lattice.node_count());
  Require(built2->edge_count() == lattice.edge_count());
  for (uint32_t n = 0; n < lattice.node_count(); ++n) {
    Require(SpanToItemset(built2->NodeItems(n)) ==
            SpanToItemset(lattice.NodeItems(n)));
    const auto a = lattice.Subsets(n);
    const auto b = built2->Subsets(n);
    Require(a.size() == b.size());
    for (size_t i = 0; i < a.size(); ++i) Require(a[i] == b[i]);
  }
  if (!exact_descent) return;

  // Descent exactness: from every closed node, every non-empty subset of
  // its itemset resolves to the database support.
  for (uint32_t n = 0; n < lattice.node_count(); ++n) {
    const Itemset node_items = SpanToItemset(lattice.NodeItems(n));
    if (node_items.size() > 5) continue;  // 2^5 subsets per node is plenty
    const size_t subsets = size_t{1} << node_items.size();
    for (size_t mask = 1; mask < subsets; ++mask) {
      Itemset subset;
      for (size_t i = 0; i < node_items.size(); ++i) {
        if (mask & (size_t{1} << i)) subset.push_back(node_items[i]);
      }
      const uint64_t want = db.Support(subset);
      const uint32_t end = lattice.DescendToClosure(n, subset);
      Require(end != ConceptLattice::kNotFound);
      Require(lattice.NodeSupport(end) == want);
      Require(lattice.NodeContains(end, subset));
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 3) return 0;
  const size_t universe = 2 + data[0] % 6;  // 2..7
  const size_t min_support = 1 + data[1] % 3;
  const size_t cap = 2 + data[1] / 3 % 3;  // 2..4

  maras::mining::TransactionDatabase db;
  const size_t n_txn = std::min<size_t>(size - 2, 64);
  for (size_t t = 0; t < n_txn; ++t) {
    Itemset txn = MaskToItemset(data[2 + t], universe);
    if (!txn.empty()) db.Add(std::move(txn));
  }
  if (db.size() == 0) return 0;

  // Uncapped mine, so the descent exactness precondition holds for every
  // closed node (concept_lattice.h); then the capped mine, covers only.
  for (size_t max_itemset_size : {size_t{0}, cap}) {
    maras::mining::MiningOptions options{.min_support = min_support,
                                         .max_itemset_size = max_itemset_size,
                                         .num_threads = 1};
    auto closed = maras::mining::MineClosed(db, options);
    Require(closed.ok());
    CheckLattice(db, *closed, /*exact_descent=*/max_itemset_size == 0);
  }
  return 0;
}
