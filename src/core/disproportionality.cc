#include "core/disproportionality.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mining/bitmap.h"
#include "util/thread_pool.h"

namespace maras::core {

namespace {

double Capped(double v) {
  if (!std::isfinite(v)) return kDisproportionalityCap;
  return std::min(v, kDisproportionalityCap);
}

}  // namespace

ContingencyTable MakeContingencyTable(const mining::TransactionDatabase& db,
                                      const mining::Itemset& drugs,
                                      const mining::Itemset& adrs) {
  ContingencyTable t;
  const size_t n = db.size();
  const size_t with_drugs = db.Support(drugs);
  const size_t with_adrs = db.Support(adrs);
  t.a = db.Support(mining::Union(drugs, adrs));
  t.b = with_drugs - t.a;
  t.c = with_adrs - t.a;
  t.d = n - with_drugs - t.c;
  return t;
}

double Prr(const ContingencyTable& t) {
  if (t.a + t.b == 0 || t.c + t.d == 0 || t.c == 0) {
    // No exposed reports, no comparator reports, or zero background rate:
    // the ratio is undefined / infinite. Follow practice: 0 when no
    // exposure, cap when the background rate is zero but cases exist.
    if (t.a == 0) return 0.0;
    return t.c == 0 ? kDisproportionalityCap : 0.0;
  }
  double exposed_rate =
      static_cast<double>(t.a) / static_cast<double>(t.a + t.b);
  double background_rate =
      static_cast<double>(t.c) / static_cast<double>(t.c + t.d);
  if (background_rate == 0.0) return kDisproportionalityCap;
  return Capped(exposed_rate / background_rate);
}

double Ror(const ContingencyTable& t) {
  if (t.a == 0) return 0.0;
  if (t.b == 0 || t.c == 0) return kDisproportionalityCap;
  return Capped((static_cast<double>(t.a) * static_cast<double>(t.d)) /
                (static_cast<double>(t.b) * static_cast<double>(t.c)));
}

double ChiSquaredYates(const ContingencyTable& t) {
  const double n = static_cast<double>(t.n());
  if (n == 0.0) return 0.0;
  const double a = static_cast<double>(t.a);
  const double b = static_cast<double>(t.b);
  const double c = static_cast<double>(t.c);
  const double d = static_cast<double>(t.d);
  const double row1 = a + b, row2 = c + d;
  const double col1 = a + c, col2 = b + d;
  if (row1 == 0 || row2 == 0 || col1 == 0 || col2 == 0) return 0.0;
  double diff = std::abs(a * d - b * c) - n / 2.0;
  if (diff < 0.0) diff = 0.0;  // Yates correction cannot flip the sign
  return (n * diff * diff) / (row1 * row2 * col1 * col2);
}

double InformationComponent(const ContingencyTable& t) {
  const double n = static_cast<double>(t.n());
  if (n == 0.0) return 0.0;
  const double a = static_cast<double>(t.a);
  const double expected = (a + static_cast<double>(t.b)) *
                          (a + static_cast<double>(t.c)) / n;
  return std::log2((a + 0.5) / (expected + 0.5));
}

namespace {

RatioInterval IntervalAround(double estimate, double standard_error,
                             double z) {
  if (estimate <= 0.0 || !std::isfinite(standard_error) ||
      standard_error <= 0.0 || estimate >= kDisproportionalityCap) {
    return RatioInterval{0.0, kDisproportionalityCap};
  }
  double log_estimate = std::log(estimate);
  return RatioInterval{
      std::exp(log_estimate - z * standard_error),
      std::min(std::exp(log_estimate + z * standard_error),
               kDisproportionalityCap)};
}

}  // namespace

RatioInterval PrrInterval(const ContingencyTable& t, double z) {
  if (t.a == 0 || t.c == 0 || t.a + t.b == 0 || t.c + t.d == 0) {
    return RatioInterval{0.0, kDisproportionalityCap};
  }
  double se = std::sqrt(1.0 / static_cast<double>(t.a) -
                        1.0 / static_cast<double>(t.a + t.b) +
                        1.0 / static_cast<double>(t.c) -
                        1.0 / static_cast<double>(t.c + t.d));
  return IntervalAround(Prr(t), se, z);
}

DisproportionalityResult EvaluateDisproportionality(
    const mining::TransactionDatabase& db, const DrugAdrRule& rule) {
  DisproportionalityResult result;
  result.table = MakeContingencyTable(db, rule.drugs, rule.adrs);
  result.prr = Prr(result.table);
  result.ror = Ror(result.table);
  result.chi_squared = ChiSquaredYates(result.table);
  result.information_component = InformationComponent(result.table);
  return result;
}

namespace {

// Dense bitmaps for the distinct items the rule batch touches, built once
// from the vertical index and shared (read-only) by every counting task.
class ItemBitmapCache {
 public:
  ItemBitmapCache(const mining::TransactionDatabase& db,
                  const std::vector<DrugAdrRule>& rules)
      : universe_(db.size()),
        bitmaps_(db.item_bound()),
        built_(db.item_bound(), 0) {
    zero_.Reset(universe_);
    full_.Reset(universe_);
    full_.Fill();
    for (const DrugAdrRule& rule : rules) {
      for (mining::ItemId item : rule.drugs) Build(db, item);
      for (mining::ItemId item : rule.adrs) Build(db, item);
    }
  }

  // Returns the AND of s's item bitmaps and stores its popcount in
  // *support. Empty and single-item sets alias cached storage; larger sets
  // materialize into *storage via *scratch (both recycled across calls).
  const mining::TidBitmap* Intersect(const mining::Itemset& s,
                                     mining::TidBitmap* storage,
                                     mining::TidBitmap* scratch,
                                     size_t* support) const {
    if (s.empty()) {
      *support = universe_;
      return &full_;
    }
    const mining::TidBitmap* acc = &Bitmap(s[0]);
    if (s.size() == 1) {
      *support = mining::BitmapPopcount(*acc);
      return acc;
    }
    *support = mining::BitmapAnd(*acc, Bitmap(s[1]), storage);
    for (size_t i = 2; i < s.size(); ++i) {
      *support = mining::BitmapAnd(*storage, Bitmap(s[i]), scratch);
      std::swap(*storage, *scratch);
    }
    return storage;
  }

 private:
  const mining::TidBitmap& Bitmap(mining::ItemId item) const {
    // Items beyond the db's bound were never seen: the empty set, exactly
    // what the scalar path's Support() returns 0 for.
    return static_cast<size_t>(item) < bitmaps_.size() &&
                   built_[static_cast<size_t>(item)]
               ? bitmaps_[static_cast<size_t>(item)]
               : zero_;
  }

  void Build(const mining::TransactionDatabase& db, mining::ItemId item) {
    const size_t idx = static_cast<size_t>(item);
    if (idx >= bitmaps_.size() || built_[idx]) return;
    bitmaps_[idx] = mining::TidBitmap::FromTids(db.TidList(item), universe_);
    built_[idx] = 1;
  }

  size_t universe_;
  mining::TidBitmap zero_;  // never-seen items
  mining::TidBitmap full_;  // the empty itemset (support == universe)
  std::vector<mining::TidBitmap> bitmaps_;
  std::vector<char> built_;
};

}  // namespace

ContingencyBatch MakeContingencyTables(const mining::TransactionDatabase& db,
                                       const std::vector<DrugAdrRule>& rules,
                                       size_t num_threads) {
  ContingencyBatch batch;
  batch.a.resize(rules.size());
  batch.b.resize(rules.size());
  batch.c.resize(rules.size());
  batch.d.resize(rules.size());
  if (rules.empty()) return batch;

  const ItemBitmapCache cache(db, rules);
  const size_t n = db.size();

  // One rule's lane: the margins come from the materialized drug/adr
  // bitmaps, the joint cell from one AND+popcount pass — never a merge.
  // Each worker slot owns one scratch set; lane i writes only entry i of
  // the batch, so the lanes are scheduling-free.
  struct LaneScratch {
    mining::TidBitmap drugs, adrs, scratch;
  };
  std::vector<LaneScratch> scratches(
      maras::EffectiveThreads(num_threads, rules.size()));
  maras::ParallelFor(num_threads, rules.size(), [&](size_t slot, size_t i) {
    LaneScratch& lane = scratches[slot];
    size_t with_drugs = 0;
    size_t with_adrs = 0;
    const mining::TidBitmap* drugs_bm = cache.Intersect(
        rules[i].drugs, &lane.drugs, &lane.scratch, &with_drugs);
    const mining::TidBitmap* adrs_bm = cache.Intersect(
        rules[i].adrs, &lane.adrs, &lane.scratch, &with_adrs);
    const size_t a = mining::AndPopcount(*drugs_bm, *adrs_bm);
    batch.a[i] = a;
    batch.b[i] = with_drugs - a;
    batch.c[i] = with_adrs - a;
    batch.d[i] = n - with_drugs - (with_adrs - a);
  });
  return batch;
}

std::vector<DisproportionalityResult> EvaluateDisproportionalityBatch(
    const mining::TransactionDatabase& db, const std::vector<DrugAdrRule>& rules,
    size_t num_threads) {
  const ContingencyBatch batch = MakeContingencyTables(db, rules, num_threads);
  std::vector<DisproportionalityResult> results(batch.size());
  // Each measure sweeps its own SoA pass through the same scalar functions
  // the one-rule path uses, so every double matches bit-for-bit.
  for (size_t i = 0; i < batch.size(); ++i) {
    results[i].table = batch.Table(i);
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    results[i].prr = Prr(results[i].table);
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    results[i].ror = Ror(results[i].table);
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    results[i].chi_squared = ChiSquaredYates(results[i].table);
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    results[i].information_component = InformationComponent(results[i].table);
  }
  return results;
}

}  // namespace maras::core
