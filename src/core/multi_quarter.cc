#include "core/multi_quarter.h"

#include "core/analysis_stages.h"
#include "mining/measures.h"

namespace maras::core {

maras::StatusOr<faers::PreprocessResult> MergeQuarters(
    const std::vector<const faers::PreprocessResult*>& quarters) {
  if (quarters.empty()) {
    return maras::Status::InvalidArgument("no quarters to merge");
  }
  faers::PreprocessResult merged;
  size_t total = 0;
  for (const faers::PreprocessResult* quarter : quarters) {
    total += quarter->transactions.size();
  }
  std::vector<mining::Itemset> transactions;
  transactions.reserve(total);
  for (const faers::PreprocessResult* quarter : quarters) {
    // Old-id -> new-id mapping for this quarter's vocabulary.
    std::vector<mining::ItemId> remap(quarter->items.size());
    for (size_t old_id = 0; old_id < quarter->items.size(); ++old_id) {
      auto id = static_cast<mining::ItemId>(old_id);
      MARAS_ASSIGN_OR_RETURN(
          remap[old_id],
          merged.items.Intern(quarter->items.Name(id),
                              quarter->items.Domain(id)));
    }
    for (size_t t = 0; t < quarter->transactions.size(); ++t) {
      const mining::Itemset& source = quarter->transactions.transaction(
          static_cast<mining::TransactionId>(t));
      mining::Itemset transaction;
      transaction.reserve(source.size());
      for (mining::ItemId old_id : source) {
        transaction.push_back(remap[old_id]);
      }
      transactions.push_back(std::move(transaction));
      merged.primary_ids.push_back(quarter->primary_ids[t]);
    }
    // Aggregate statistics.
    merged.stats.reports_in += quarter->stats.reports_in;
    merged.stats.reports_kept += quarter->stats.reports_kept;
    merged.stats.dropped_not_expedited +=
        quarter->stats.dropped_not_expedited;
    merged.stats.dropped_stale_version +=
        quarter->stats.dropped_stale_version;
    merged.stats.dropped_empty += quarter->stats.dropped_empty;
    merged.stats.drug_mentions += quarter->stats.drug_mentions;
    merged.stats.adr_mentions += quarter->stats.adr_mentions;
    merged.stats.fuzzy_corrections += quarter->stats.fuzzy_corrections;
    merged.stats.alias_resolutions += quarter->stats.alias_resolutions;
  }
  merged.transactions =
      mining::TransactionDatabase::Build(std::move(transactions));
  merged.stats.distinct_drugs =
      merged.items.CountInDomain(mining::ItemDomain::kDrug);
  merged.stats.distinct_adrs =
      merged.items.CountInDomain(mining::ItemDomain::kAdr);
  return merged;
}

std::vector<QuarterlySignalTrend> TrackSignal(
    const std::vector<const faers::PreprocessResult*>& quarters,
    const std::vector<std::string>& quarter_labels,
    const std::vector<std::string>& drug_names,
    const std::vector<std::string>& adr_names) {
  std::vector<QuarterlySignalTrend> trend;
  for (size_t q = 0; q < quarters.size(); ++q) {
    QuarterlySignalTrend row;
    row.label = q < quarter_labels.size() ? quarter_labels[q]
                                          : std::to_string(q + 1);
    const faers::PreprocessResult& quarter = *quarters[q];
    mining::Itemset drugs, adrs;
    bool resolvable = true;
    for (const std::string& name : drug_names) {
      auto id = quarter.items.Lookup(name);
      if (!id.ok()) {
        resolvable = false;
        break;
      }
      drugs.push_back(*id);
    }
    for (const std::string& name : adr_names) {
      if (!resolvable) break;
      auto id = quarter.items.Lookup(name);
      if (!id.ok()) {
        resolvable = false;
        break;
      }
      adrs.push_back(*id);
    }
    if (resolvable) {
      drugs = mining::MakeItemset(std::move(drugs));
      adrs = mining::MakeItemset(std::move(adrs));
      row.combination_reports = quarter.transactions.Support(drugs);
      row.reports =
          quarter.transactions.Support(mining::Union(drugs, adrs));
      row.confidence =
          mining::Confidence(row.reports, row.combination_reports);
    }
    trend.push_back(std::move(row));
  }
  return trend;
}

const char* TrendVerdictName(TrendVerdict verdict) {
  switch (verdict) {
    case TrendVerdict::kEmerging:
      return "emerging";
    case TrendVerdict::kStable:
      return "stable";
    case TrendVerdict::kFading:
      return "fading";
    case TrendVerdict::kInsufficient:
      return "insufficient";
  }
  return "?";
}

maras::StatusOr<faers::PreprocessResult> MultiQuarterPipeline::ProcessQuarter(
    const faers::QuarterDataset& dataset, QuarterOutcome* outcome) const {
  faers::ValidationReport validation =
      faers::ValidateDataset(dataset, options_.validation);
  MARAS_RETURN_IF_ERROR(faers::EnforceValidation(
      validation, options_.ingest, &outcome->ingest));
  faers::Preprocessor preprocessor(options_.preprocess);
  return preprocessor.Process(dataset, &outcome->ingest);
}

namespace {

std::vector<std::string> QuarterLabels(
    const std::vector<faers::QuarterDataset>& quarters) {
  std::vector<std::string> labels;
  for (const faers::QuarterDataset& quarter : quarters) {
    labels.push_back(quarter.Label());
  }
  return labels;
}

// The in-process QuarterLoad: ProcessQuarter on the fan-out thread.
QuarterLoad InProcessLoad(const MultiQuarterPipeline& pipeline,
                          const std::vector<faers::QuarterDataset>& quarters) {
  return [&pipeline, &quarters](size_t i, QuarterCheckpoint* slot) {
    return FillQuarterSlot(
        quarters[i].Label(),
        pipeline.ProcessQuarter(quarters[i], &slot->outcome), slot);
  };
}

}  // namespace

maras::StatusOr<MultiQuarterRun> MultiQuarterPipeline::Run(
    const std::vector<faers::QuarterDataset>& quarters) const {
  if (quarters.empty()) {
    return maras::Status::InvalidArgument("no quarters to ingest");
  }
  SurveillanceAnalysis out;
  MARAS_RETURN_IF_ERROR(RunQuarterStage(options_, QuarterLabels(quarters),
                                        InProcessLoad(*this, quarters),
                                        MultiQuarterOptions{}, &out));
  return std::move(out.run);
}

maras::StatusOr<SurveillanceAnalysis> MultiQuarterPipeline::RunAnalyzed(
    const std::vector<faers::QuarterDataset>& quarters,
    const AnalyzerOptions& analyzer, RankingMethod method) const {
  if (quarters.empty()) {
    return maras::Status::InvalidArgument("no quarters to ingest");
  }
  SurveillanceAnalysis out;
  MARAS_RETURN_IF_ERROR(RunQuarterStage(options_, QuarterLabels(quarters),
                                        InProcessLoad(*this, quarters),
                                        options_, &out));
  MARAS_RETURN_IF_ERROR(RunAnalysisStages(
      out.run.merged.items, out.run.merged.transactions, analyzer, options_,
      options_.context, method, &out));
  return out;
}

TrendVerdict ClassifyTrend(const std::vector<QuarterlySignalTrend>& trend,
                           double margin) {
  const QuarterlySignalTrend* first = nullptr;
  const QuarterlySignalTrend* last = nullptr;
  for (const auto& row : trend) {
    if (row.combination_reports == 0) continue;
    if (first == nullptr) first = &row;
    last = &row;
  }
  if (first == nullptr || first == last) {
    return TrendVerdict::kInsufficient;
  }
  double delta = last->confidence - first->confidence;
  if (delta > margin) return TrendVerdict::kEmerging;
  if (delta < -margin) return TrendVerdict::kFading;
  return TrendVerdict::kStable;
}

}  // namespace maras::core
