#include "core/multi_quarter.h"

#include "core/analysis_stages.h"
#include "core/checkpoint.h"
#include "mining/measures.h"
#include "util/run_context.h"
#include "util/thread_pool.h"

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

// The quarter stage, one "quarter-<label>" stage per quarter. Each slot is
// replayed from its checkpoint when resuming and otherwise loaded by
// ProcessQuarter on the options' num_threads fan-out, one task per quarter
// writing its own slot. The run context is polled before each quarter is
// handed out and after each load, so a trip fails the stage with the
// context's status; a failed load is a recorded outcome. The serial
// in-order reduce then applies the ingest policy (under kStrict the first
// unloaded quarter fails the run with its load status, otherwise it adds a
// skip warning), publishes each computed slot (checkpoint + stage hook per
// `checkpoints`), merges accounting in input order and pools the loaded
// quarters into out->run; no loaded quarter at all is Corruption.
maras::Status RunQuarterStage(
    const MultiQuarterPipeline& pipeline,
    const std::vector<faers::QuarterDataset>& quarters,
    const MultiQuarterOptions& checkpoints, SurveillanceAnalysis* out) {
  const MultiQuarterOptions& options = pipeline.options();
  const maras::RunContext ungoverned;
  const maras::RunContext& ctx =
      options.context != nullptr ? *options.context : ungoverned;
  const size_t n = quarters.size();
  std::vector<std::string> labels;
  std::vector<QuarterCheckpoint> slots(n);
  std::vector<char> from_disk(n, 0);
  std::vector<maras::Status> failures(n);
  for (size_t i = 0; i < n; ++i) {
    labels.push_back(quarters[i].Label());
    from_disk[i] = TryResumeStage(
        checkpoints, "quarter-" + labels[i],
        [&]() -> maras::Status {
          MARAS_ASSIGN_OR_RETURN(
              slots[i],
              ReadQuarterCheckpoint(checkpoints.checkpoint_dir, labels[i]));
          return maras::Status::OK();
        },
        out);
  }
  maras::Status fan_out = maras::TryParallelFor(
      options.num_threads, n, ctx, [&](size_t i) -> maras::Status {
        if (from_disk[i]) return maras::Status::OK();
        QuarterOutcome& outcome = slots[i].outcome;
        outcome.label = labels[i];
        maras::StatusOr<faers::PreprocessResult> result =
            pipeline.ProcessQuarter(quarters[i], &outcome);
        if (result.ok()) {
          outcome.loaded = true;
          slots[i].result = *std::move(result);
        } else {
          failures[i] = result.status();
          outcome.error = failures[i].ToString();
        }
        return ctx.Check();
      });
  if (!fan_out.ok()) {
    return maras::WithContext(fan_out, "multi-quarter ingest");
  }
  const bool strict = options.ingest.policy == faers::IngestPolicy::kStrict;
  MultiQuarterRun run;
  for (size_t i = 0; i < n; ++i) {
    const QuarterOutcome& outcome = slots[i].outcome;
    if (strict && !outcome.loaded) {
      const maras::Status failure =
          !failures[i].ok() ? failures[i]
                            : maras::Status::Corruption(outcome.error);
      return maras::WithContext(failure, "quarter " + outcome.label);
    }
    if (!from_disk[i]) {
      MARAS_RETURN_IF_ERROR(PublishStage(checkpoints, "quarter-" + labels[i],
                                         EncodeQuarterCheckpoint(slots[i])));
    }
    if (outcome.loaded) {
      ++run.quarters_loaded;
    } else {
      run.ingest.warnings.push_back("skipping quarter " + outcome.label +
                                    ": " + outcome.error);
    }
    run.ingest.Merge(outcome.ingest);
    run.outcomes.push_back(outcome);
  }
  if (run.quarters_loaded == 0) {
    return maras::Status::Corruption("all " + std::to_string(n) +
                                     " quarters failed ingestion");
  }
  std::vector<const faers::PreprocessResult*> loaded;
  for (const QuarterCheckpoint& slot : slots) {
    if (slot.result.has_value()) loaded.push_back(&*slot.result);
  }
  MARAS_ASSIGN_OR_RETURN(run.merged, MergeQuarters(loaded));
  out->run = std::move(run);
  return maras::Status::OK();
}

}  // namespace

maras::StatusOr<MultiQuarterRun> MultiQuarterPipeline::Run(
    const std::vector<faers::QuarterDataset>& quarters) const {
  if (quarters.empty()) {
    return maras::Status::InvalidArgument("no quarters to ingest");
  }
  SurveillanceAnalysis out;
  MARAS_RETURN_IF_ERROR(
      RunQuarterStage(*this, quarters, MultiQuarterOptions{}, &out));
  return std::move(out.run);
}

maras::StatusOr<SurveillanceAnalysis> MultiQuarterPipeline::RunAnalyzed(
    const std::vector<faers::QuarterDataset>& quarters,
    const AnalyzerOptions& analyzer, RankingMethod method) const {
  if (quarters.empty()) {
    return maras::Status::InvalidArgument("no quarters to ingest");
  }
  SurveillanceAnalysis out;
  MARAS_RETURN_IF_ERROR(RunQuarterStage(*this, quarters, options_, &out));
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
