#include "core/analyzer.h"

#include <algorithm>
#include <optional>

#include "core/analysis_stages.h"
#include "mining/fpgrowth.h"
#include "util/run_context.h"

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
    const faers::PreprocessResult& input,
    const faers::IngestReport& ingest) const {
  MARAS_ASSIGN_OR_RETURN(AnalysisResult result,
                         Analyze(input.items, input.transactions));
  if (ingest.rows_rejected > 0) {
    result.ingest_warnings.push_back("ingestion: " + ingest.Summary());
  }
  result.ingest_warnings.insert(result.ingest_warnings.end(),
                                ingest.warnings.begin(),
                                ingest.warnings.end());
  return result;
}

maras::StatusOr<AnalysisResult> MarasAnalyzer::Analyze(
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db) const {
  if (db.empty()) {
    return maras::Status::FailedPrecondition("empty transaction database");
  }
  const RunContext ungoverned;
  const RunContext& ctx = options_.mining.context != nullptr
                              ? *options_.mining.context
                              : ungoverned;
  // No checkpointing, and no ranking: callers rank result.mcacs.
  SurveillanceAnalysis staged;
  AnalysisResult result;
  MARAS_RETURN_IF_ERROR(RunAnalysisStages(
      [&] {
        return MineWithDegradation(db, options_.mining, options_.degradation);
      },
      items, db, options_, MultiQuarterOptions{}, ctx, std::nullopt, &staged,
      &result.mcacs));
  result.stats = staged.stats;
  result.truncated = staged.truncated;
  result.degradation_notes = std::move(staged.notes);
  return result;
}

std::vector<uint64_t> SupportingReports(
    const mining::TransactionDatabase& db,
    const std::vector<uint64_t>& primary_ids, const DrugAdrRule& rule) {
  std::vector<uint64_t> reports;
  for (mining::TransactionId tid :
       db.ContainingTransactions(rule.CompleteItemset())) {
    if (tid < primary_ids.size()) reports.push_back(primary_ids[tid]);
  }
  return reports;
}

}  // namespace maras::core
