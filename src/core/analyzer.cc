#include "core/analyzer.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "core/analysis_stages.h"
#include "mining/bitmap.h"
#include "mining/fpgrowth.h"

namespace maras::core {

size_t EscalateSupport(size_t min_support, double factor) {
  return std::max(min_support + 1,
                  static_cast<size_t>(static_cast<double>(min_support) *
                                      factor));
}

maras::StatusOr<GovernedMineResult> MineWithDegradation(
    const mining::TransactionDatabase& db, mining::MiningOptions options,
    const DegradationOptions& degradation) {
  GovernedMineResult outcome;
  for (size_t attempt = 0;; ++attempt) {
    mining::FpGrowth miner(options);
    maras::StatusOr<mining::FrequentItemsetResult> mined = miner.Mine(db);
    if (mined.ok()) {
      outcome.frequent = *std::move(mined);
      outcome.min_support_used = options.min_support;
      return outcome;
    }
    if (!degradation.enabled || !mined.status().IsResourceExhausted() ||
        attempt >= degradation.max_retries) {
      return mined.status();
    }
    const size_t escalated =
        EscalateSupport(options.min_support, degradation.support_factor);
    outcome.notes.push_back(
        "memory budget exhausted at min_support=" +
        std::to_string(options.min_support) + "; retrying at min_support=" +
        std::to_string(escalated) + " (result will be truncated)");
    options.min_support = escalated;
    outcome.truncated = true;
  }
}

maras::StatusOr<AnalysisResult> MarasAnalyzer::Analyze(
    const faers::PreprocessResult& input) const {
  return Analyze(input.items, input.transactions);
}

maras::StatusOr<AnalysisResult> MarasAnalyzer::Analyze(
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db) const {
  if (db.empty()) {
    return maras::Status::FailedPrecondition("empty transaction database");
  }
  // No checkpointing, and no ranking: callers rank result.mcacs.
  SurveillanceAnalysis staged;
  AnalysisResult result;
  MARAS_RETURN_IF_ERROR(RunAnalysisStages(
      items, db, options_, MultiQuarterOptions{}, options_.mining.context,
      std::nullopt, &staged, &result.mcacs));
  result.stats = staged.stats;
  result.truncated = staged.truncated;
  result.degradation_notes = std::move(staged.notes);
  return result;
}

std::vector<uint64_t> SupportingReports(
    const mining::TransactionDatabase& db,
    const std::vector<uint64_t>& primary_ids, const DrugAdrRule& rule) {
  const DrugAdrRule* const one[] = {&rule};
  return std::move(SupportingReportLists(db, primary_ids, one).front());
}

std::vector<std::vector<uint64_t>> SupportingReportLists(
    const mining::TransactionDatabase& db,
    const std::vector<uint64_t>& primary_ids,
    std::span<const DrugAdrRule* const> rules) {
  std::vector<std::vector<uint64_t>> lists(rules.size());
  // Transactions past the end of primary_ids are dropped, so only
  // [0, end) is scanned.
  const size_t end = std::min(db.size(), primary_ids.size());

  // operands[r] lists the bitmaps rule r ANDs, by slot: one slot per
  // distinct item. An item at or past item_bound() occurs in no
  // transaction, so a rule naming one keeps its empty list and gets no
  // operands. Duplicates (an item on both sides) are harmless.
  constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> slot(db.item_bound(), kNoSlot);
  std::vector<const std::vector<mining::TransactionId>*> slot_tids;
  std::vector<std::vector<uint32_t>> operands(rules.size());
  for (size_t r = 0; r < rules.size(); ++r) {
    bool absent_item = false;
    for (const mining::Itemset* side : {&rules[r]->drugs, &rules[r]->adrs}) {
      for (mining::ItemId item : *side) {
        if (item >= slot.size()) {
          absent_item = true;
          continue;
        }
        if (slot[item] == kNoSlot) {
          slot[item] = static_cast<uint32_t>(slot_tids.size());
          slot_tids.push_back(&db.TidList(item));
        }
        operands[r].push_back(slot[item]);
      }
    }
    if (absent_item) {
      operands[r].clear();
    } else if (operands[r].empty()) {
      // The empty itemset is contained in every transaction.
      lists[r].assign(primary_ids.begin(), primary_ids.begin() + end);
    }
  }

  // The item bitmaps cover one block of kBlockTids transactions at a time,
  // so they take 1 KiB per item whatever the database size. Each rule's
  // reports are appended block by block, so they stay in tid order.
  constexpr size_t kBlockTids = 128 * mining::kBitmapWordBits;
  std::vector<mining::TidBitmap> bitmaps(slot_tids.size());
  std::vector<size_t> cursor(slot_tids.size(), 0);
  mining::TidBitmap scratch;
  for (size_t base = 0; base < end; base += kBlockTids) {
    const size_t universe = std::min(kBlockTids, end - base);
    for (size_t i = 0; i < bitmaps.size(); ++i) {
      const std::vector<mining::TransactionId>& tids = *slot_tids[i];
      bitmaps[i].Reset(universe);
      for (size_t& c = cursor[i]; c < tids.size() && tids[c] < base + universe;
           ++c) {
        bitmaps[i].Set(static_cast<mining::TransactionId>(tids[c] - base));
      }
    }
    for (size_t r = 0; r < rules.size(); ++r) {
      const std::vector<uint32_t>& ops = operands[r];
      if (ops.empty()) continue;
      const mining::TidBitmap* extent = &bitmaps[ops[0]];
      if (ops.size() > 1) {
        bool any = mining::BitmapAnd(bitmaps[ops[0]], bitmaps[ops[1]],
                                     &scratch);
        for (size_t i = 2; i < ops.size() && any; ++i) {
          any = mining::BitmapAndInto(&scratch, bitmaps[ops[i]]);
        }
        if (!any) continue;
        extent = &scratch;
      }
      std::vector<uint64_t>& reports = lists[r];
      extent->ForEachTid([&](mining::TransactionId tid) {
        reports.push_back(primary_ids[base + tid]);
      });
    }
  }
  return lists;
}

}  // namespace maras::core
