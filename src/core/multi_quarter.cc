#include "core/multi_quarter.h"

#include "core/analysis_stages.h"
#include "faers/ascii_format.h"
#include "mining/measures.h"
#include "util/run_context.h"

namespace maras::core {

maras::StatusOr<faers::PreprocessResult> MergeQuarters(
    const std::vector<const faers::PreprocessResult*>& quarters) {
  if (quarters.empty()) {
    return maras::Status::InvalidArgument("no quarters to merge");
  }
  faers::PreprocessResult merged;
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
      mining::Itemset transaction;
      transaction.reserve(quarter->transactions.transaction(
                                  static_cast<mining::TransactionId>(t))
                              .size());
      for (mining::ItemId old_id : quarter->transactions.transaction(
               static_cast<mining::TransactionId>(t))) {
        transaction.push_back(remap[old_id]);
      }
      merged.transactions.Add(std::move(transaction));
      merged.primary_ids.push_back(quarter->primary_ids[t]);
      merged.demographics.push_back(t < quarter->demographics.size()
                                        ? quarter->demographics[t]
                                        : faers::CaseDemographics{});
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

}  // namespace

maras::StatusOr<MultiQuarterRun> MultiQuarterPipeline::RunFromDirs(
    const std::vector<QuarterSource>& sources) const {
  if (sources.empty()) {
    return maras::Status::InvalidArgument("no quarters to ingest");
  }
  std::vector<std::string> labels;
  for (const QuarterSource& source : sources) labels.push_back(source.Label());
  SurveillanceAnalysis out;
  MARAS_RETURN_IF_ERROR(RunQuarterStage(
      options_, labels,
      [&](size_t i, QuarterOutcome* outcome)
          -> maras::StatusOr<faers::PreprocessResult> {
        MARAS_ASSIGN_OR_RETURN(
            faers::QuarterDataset dataset,
            faers::ReadAsciiQuarterFromDir(
                sources[i].directory, sources[i].year, sources[i].quarter,
                options_.ingest, &outcome->ingest));
        return ProcessQuarter(dataset, outcome);
      },
      MultiQuarterOptions{}, &out));
  return std::move(out.run);
}

maras::StatusOr<MultiQuarterRun> MultiQuarterPipeline::Run(
    const std::vector<faers::QuarterDataset>& quarters) const {
  if (quarters.empty()) {
    return maras::Status::InvalidArgument("no quarters to ingest");
  }
  SurveillanceAnalysis out;
  MARAS_RETURN_IF_ERROR(RunQuarterStage(
      options_, QuarterLabels(quarters),
      [&](size_t i, QuarterOutcome* outcome) {
        return ProcessQuarter(quarters[i], outcome);
      },
      MultiQuarterOptions{}, &out));
  return std::move(out.run);
}

maras::StatusOr<SurveillanceAnalysis> MultiQuarterPipeline::RunAnalyzed(
    const std::vector<faers::QuarterDataset>& quarters,
    const AnalyzerOptions& analyzer, RankingMethod method) const {
  if (quarters.empty()) {
    return maras::Status::InvalidArgument("no quarters to ingest");
  }
  const maras::RunContext ungoverned;
  const maras::RunContext& ctx =
      options_.context != nullptr ? *options_.context : ungoverned;
  SurveillanceAnalysis out;
  MARAS_RETURN_IF_ERROR(RunQuarterStage(
      options_, QuarterLabels(quarters),
      [&](size_t i, QuarterOutcome* outcome) {
        return ProcessQuarter(quarters[i], outcome);
      },
      options_, &out));
  const mining::TransactionDatabase& db = out.run.merged.transactions;
  mining::MiningOptions mining_options = analyzer.mining;
  mining_options.context = options_.context;
  MARAS_RETURN_IF_ERROR(RunAnalysisStages(
      [&] {
        return MineWithDegradation(db, mining_options, analyzer.degradation);
      },
      out.run.merged.items, db, analyzer, options_, ctx, method, &out));
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
