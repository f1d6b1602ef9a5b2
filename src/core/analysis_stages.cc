#include "core/analysis_stages.h"

#include <cstdio>
#include <optional>
#include <string_view>
#include <utility>

#include "mining/closed_itemsets.h"
#include "mining/concept_lattice.h"
#include "mining/rules.h"
#include "util/run_context.h"
#include "util/thread_pool.h"

namespace maras::core {

namespace {

// Counts drug/ADR items of `itemset` under the merged vocabulary.
void CountItemDomains(const mining::Itemset& itemset,
                      const mining::ItemDictionary& items, size_t* drugs,
                      size_t* adrs) {
  *drugs = 0;
  *adrs = 0;
  for (mining::ItemId id : itemset) {
    if (items.Domain(id) == mining::ItemDomain::kDrug) {
      ++*drugs;
    } else {
      ++*adrs;
    }
  }
}

// ---------------------------------------------------------------------------
// Options records. A stage checkpoint carries, ahead of its payload, one
// text line naming every option the stage's compute read, e.g.
//   "maras-stage-options v1: min_support=10 max_itemset_size=8 ...\n"
// A replay requires the line to equal this run's, so a checkpoint made
// under other options (or one without the line) is recomputed.
// ---------------------------------------------------------------------------

constexpr std::string_view kOptionsTag = "maras-stage-options v1:";

std::string Field(const char* name, size_t value) {
  return std::string(" ") + name + "=" + std::to_string(value);
}

// Doubles in hexadecimal, so the record is exact.
std::string Field(const char* name, double value) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), " %s=%a", name, value);
  return buf;
}

// "closed" reads the mining support and cap, the degradation ladder, and
// min_confidence (its rule-space count).
std::string ClosedOptions(const AnalyzerOptions& analyzer) {
  const DegradationOptions& degradation = analyzer.degradation;
  return std::string(kOptionsTag) +
         Field("min_support", analyzer.mining.min_support) +
         Field("max_itemset_size", analyzer.mining.max_itemset_size) +
         Field("min_confidence", analyzer.min_confidence) +
         Field("degradation", static_cast<size_t>(degradation.enabled)) +
         Field("max_retries", degradation.max_retries) +
         Field("support_factor", degradation.support_factor) + "\n";
}

// "rules" reads the cap (its database closedness check), min_confidence
// and max_drugs_per_rule.
std::string RulesOptions(const AnalyzerOptions& analyzer) {
  return std::string(kOptionsTag) +
         Field("max_itemset_size", analyzer.mining.max_itemset_size) +
         Field("min_confidence", analyzer.min_confidence) +
         Field("max_drugs_per_rule", analyzer.max_drugs_per_rule) + "\n";
}

// "ranked" reads the ranking method and the exclusiveness options.
std::string RankedOptions(const AnalyzerOptions& analyzer,
                          RankingMethod method) {
  const ExclusivenessOptions& scoring = analyzer.exclusiveness;
  return std::string(kOptionsTag) +
         Field("method", static_cast<size_t>(method)) +
         Field("theta", scoring.theta) +
         Field("use_decay", static_cast<size_t>(scoring.use_decay)) +
         Field("measure", static_cast<size_t>(scoring.measure)) + "\n";
}

// The payload of a framed stage checkpoint whose options record equals
// `record`; FailedPrecondition otherwise.
maras::StatusOr<std::string_view> PayloadUnder(std::string_view framed,
                                               std::string_view record) {
  if (framed.substr(0, kOptionsTag.size()) != kOptionsTag) {
    return maras::Status::FailedPrecondition(
        "checkpoint has no options record");
  }
  const size_t end = framed.find('\n');
  const std::string_view recorded =
      framed.substr(0, end == std::string_view::npos ? framed.size() : end + 1);
  if (recorded != record) {
    std::string_view fields = recorded.substr(kOptionsTag.size());
    if (!fields.empty() && fields.back() == '\n') fields.remove_suffix(1);
    return maras::Status::FailedPrecondition("made under other options:" +
                                             std::string(fields));
  }
  return framed.substr(recorded.size());
}

// One checkpointed stage: replays *value from its snapshot when the
// snapshot's options record equals `options`, or computes it and publishes
// it under that record. A computed stage ends replay for the rest of the
// sequence (it clears checkpoints->resume): the later snapshots were
// derived from an input this run did not replay, so they are recomputed.
template <typename T, typename DecodeFn, typename ComputeFn>
maras::Status RunStage(MultiQuarterOptions* checkpoints,
                       const std::string& stage, const std::string& options,
                       DecodeFn&& decode, std::string (*encode)(const T&),
                       ComputeFn&& compute, T* value,
                       SurveillanceAnalysis* out) {
  const bool resumed = TryResumeStage(
      *checkpoints, stage,
      [&]() -> maras::Status {
        MARAS_ASSIGN_OR_RETURN(
            std::string framed,
            ReadCheckpoint(checkpoints->checkpoint_dir, stage));
        MARAS_ASSIGN_OR_RETURN(std::string_view payload,
                               PayloadUnder(framed, options));
        MARAS_ASSIGN_OR_RETURN(*value, decode(payload));
        return maras::Status::OK();
      },
      out);
  if (resumed) return maras::Status::OK();
  checkpoints->resume = false;
  MARAS_ASSIGN_OR_RETURN(*value, compute());
  return PublishStage(*checkpoints, stage, options + encode(*value));
}

// MCAC construction for the target rules, in rule order, every context
// support a descent in `lattice`.
maras::StatusOr<std::vector<Mcac>> BuildMcacs(
    const std::vector<DrugAdrRule>& rules,
    const mining::TransactionDatabase& db, const AnalyzerOptions& analyzer,
    const RunContext& ctx, const mining::ConceptLattice& lattice) {
  std::vector<std::optional<maras::StatusOr<Mcac>>> built(rules.size());
  maras::Status status = maras::TryParallelFor(
      analyzer.mining.num_threads, rules.size(), ctx,
      [&](size_t i) -> maras::Status {
        built[i].emplace(BuildMcac(rules[i], lattice, db.size()));
        return maras::Status::OK();
      });
  if (!status.ok()) return maras::WithContext(status, "mcac-build");
  std::vector<Mcac> mcacs;
  for (std::optional<maras::StatusOr<Mcac>>& slot : built) {
    MARAS_ASSIGN_OR_RETURN(Mcac mcac, std::move(*slot));
    mcacs.push_back(std::move(mcac));
  }
  return mcacs;
}

}  // namespace

bool TryResumeStage(const MultiQuarterOptions& checkpoints,
                    const std::string& stage,
                    const std::function<maras::Status()>& load,
                    SurveillanceAnalysis* out) {
  if (checkpoints.checkpoint_dir.empty() || !checkpoints.resume) return false;
  maras::Status loaded = load();
  if (loaded.ok()) {
    ++out->stages_resumed;
    return true;
  }
  if (!loaded.IsNotFound()) {
    out->notes.push_back("checkpoint for stage '" + stage + "' rejected: " +
                         loaded.ToString() + "; recomputing");
  }
  return false;
}

maras::Status PublishStage(const MultiQuarterOptions& checkpoints,
                           const std::string& stage,
                           const std::string& payload) {
  if (!checkpoints.checkpoint_dir.empty()) {
    MARAS_RETURN_IF_ERROR(
        WriteCheckpoint(checkpoints.checkpoint_dir, stage, payload));
  }
  // The crash-injection point: a false return simulates a process kill
  // right after the stage's checkpoint landed.
  if (checkpoints.stage_hook && !checkpoints.stage_hook(stage)) {
    return maras::Status::Cancelled("injected crash at stage " + stage);
  }
  return maras::Status::OK();
}

maras::Status RunAnalysisStages(const mining::ItemDictionary& items,
                                const mining::TransactionDatabase& db,
                                const AnalyzerOptions& analyzer,
                                const MultiQuarterOptions& checkpoints,
                                const RunContext* context,
                                std::optional<RankingMethod> method,
                                SurveillanceAnalysis* out,
                                std::vector<Mcac>* unranked) {
  const RunContext ungoverned;
  const RunContext& ctx = context != nullptr ? *context : ungoverned;
  MARAS_RETURN_IF_ERROR(ctx.Check());
  MultiQuarterOptions stages = checkpoints;
  ClosedCheckpoint closed;
  MARAS_RETURN_IF_ERROR(RunStage(
      &stages, "closed", ClosedOptions(analyzer), DecodeClosedCheckpoint,
      EncodeClosedCheckpoint,
      [&]() -> maras::StatusOr<ClosedCheckpoint> {
        mining::MiningOptions mining = analyzer.mining;
        mining.context = context;
        MARAS_ASSIGN_OR_RETURN(
            GovernedMineResult mined,
            MineWithDegradation(db, mining, analyzer.degradation));
        return BuildClosedStage(std::move(mined), items, analyzer, ctx);
      },
      &closed, out));

  // The lattice of the closed family is the support oracle of both rules
  // and MCACs: built on first use, at most once, and never when both stages
  // are replayed.
  std::optional<mining::ConceptLattice> lattice;
  auto closed_lattice =
      [&]() -> maras::StatusOr<const mining::ConceptLattice*> {
    if (!lattice.has_value()) {
      MARAS_ASSIGN_OR_RETURN(lattice,
                             BuildLatticeStage(closed.closed, analyzer, ctx));
    }
    return &*lattice;
  };

  MARAS_RETURN_IF_ERROR(ctx.Check());
  MARAS_RETURN_IF_ERROR(RunStage(
      &stages, "rules", RulesOptions(analyzer), DecodeRules, EncodeRules,
      [&]() -> maras::StatusOr<std::vector<DrugAdrRule>> {
        MARAS_ASSIGN_OR_RETURN(const mining::ConceptLattice* oracle,
                               closed_lattice());
        return BuildRulesStage(closed.closed, items, db, *oracle, analyzer,
                               ctx);
      },
      &out->rules, out));

  MARAS_RETURN_IF_ERROR(ctx.Check());
  auto build_mcacs = [&]() -> maras::StatusOr<std::vector<Mcac>> {
    MARAS_ASSIGN_OR_RETURN(const mining::ConceptLattice* oracle,
                           closed_lattice());
    maras::StatusOr<std::vector<Mcac>> mcacs =
        BuildMcacs(out->rules, db, analyzer, ctx, *oracle);
    lattice.reset();  // its last reader: free it before ranking
    return mcacs;
  };
  out->stats = closed.stats;
  if (method.has_value()) {
    MARAS_RETURN_IF_ERROR(RunStage(
        &stages, "ranked", RankedOptions(analyzer, *method), DecodeRankedMcacs,
        EncodeRankedMcacs,
        [&]() -> maras::StatusOr<std::vector<RankedMcac>> {
          MARAS_ASSIGN_OR_RETURN(std::vector<Mcac> mcacs, build_mcacs());
          return RankMcacs(mcacs, *method, analyzer.exclusiveness);
        },
        &out->ranked, out));
    out->stats.mcac_count = out->ranked.size();
  } else {
    MARAS_ASSIGN_OR_RETURN(*unranked, build_mcacs());
    out->stats.mcac_count = unranked->size();
  }

  out->closed = std::move(closed.closed);
  out->min_support_used = static_cast<size_t>(closed.min_support_used);
  out->truncated = closed.truncated;
  out->notes.insert(out->notes.end(), closed.notes.begin(),
                    closed.notes.end());
  return maras::Status::OK();
}

maras::StatusOr<ClosedCheckpoint> BuildClosedStage(
    GovernedMineResult mined, const mining::ItemDictionary& items,
    const AnalyzerOptions& analyzer, const RunContext& ctx) {
  ClosedCheckpoint closed_stage;
  closed_stage.min_support_used = mined.min_support_used;
  closed_stage.truncated = mined.truncated;
  closed_stage.notes = std::move(mined.notes);
  MARAS_ASSIGN_OR_RETURN(
      mining::RuleSpaceCount rule_count,
      mining::CountAllPartitionRules(mined.frequent, analyzer.min_confidence,
                                     ctx));
  closed_stage.stats.total_rules = rule_count.total_rules;
  for (const mining::FrequentItemset& fi : mined.frequent.itemsets()) {
    size_t drugs = 0, adrs = 0;
    CountItemDomains(fi.items, items, &drugs, &adrs);
    if (drugs >= 1 && adrs >= 1) ++closed_stage.stats.filtered_rules;
  }
  MARAS_ASSIGN_OR_RETURN(
      closed_stage.closed,
      mining::FilterClosed(mined.frequent, analyzer.mining.num_threads, ctx));
  for (const mining::FrequentItemset& fi : closed_stage.closed.itemsets()) {
    size_t drugs = 0, adrs = 0;
    CountItemDomains(fi.items, items, &drugs, &adrs);
    if (drugs >= 1 && adrs >= 1) ++closed_stage.stats.closed_mixed;
  }
  return closed_stage;
}

maras::StatusOr<std::vector<DrugAdrRule>> BuildRulesStage(
    const mining::FrequentItemsetResult& closed,
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db,
    const mining::ConceptLattice& lattice, const AnalyzerOptions& analyzer,
    const RunContext& ctx) {
  if (lattice.node_count() != closed.size()) {
    return maras::Status::InvalidArgument(
        "BuildRulesStage needs the concept lattice of the closed family");
  }
  // Node ids are positions in the closed family, so a candidate's index is
  // its lattice node.
  std::vector<uint32_t> candidates;
  for (size_t i = 0; i < closed.size(); ++i) {
    size_t drugs = 0, adrs = 0;
    CountItemDomains(closed.itemsets()[i].items, items, &drugs, &adrs);
    if (drugs < 2 || adrs < 1) continue;
    if (drugs > analyzer.max_drugs_per_rule) continue;
    candidates.push_back(static_cast<uint32_t>(i));
  }
  const size_t cap = analyzer.mining.max_itemset_size;
  std::vector<std::optional<DrugAdrRule>> built(candidates.size());
  std::vector<maras::Status> errors(candidates.size());
  maras::Status status = maras::TryParallelFor(
      analyzer.mining.num_threads, candidates.size(), ctx,
      [&](size_t i) -> maras::Status {
        const uint32_t node = candidates[i];
        const mining::FrequentItemset& fi = closed.itemsets()[node];
        // Below the size cap, closed in the family is closed in the
        // database: an equal-support superset would fit under the cap, so
        // it was mined and the closed filter dropped fi. At the cap that
        // superset may lie past it, so only there is the database asked.
        if (cap != 0 && fi.items.size() == cap &&
            !mining::IsClosedInDatabase(db, fi.items)) {
          return maras::Status::OK();
        }
        maras::StatusOr<DrugAdrRule> target = SplitByDomain(fi.items, items);
        if (!target.ok()) {
          errors[i] = target.status();
          return maras::Status::OK();
        }
        target->support = fi.support;
        target->antecedent_support =
            LatticeSupport(lattice, node, target->drugs);
        target->consequent_support =
            LatticeSupport(lattice, node, target->adrs);
        SetRuleMeasures(db.size(), &*target);
        if (target->confidence >= analyzer.min_confidence) {
          built[i] = *std::move(target);
        }
        return maras::Status::OK();
      });
  if (!status.ok()) return maras::WithContext(status, "rule-gen");
  std::vector<DrugAdrRule> rules;
  for (size_t i = 0; i < built.size(); ++i) {
    MARAS_RETURN_IF_ERROR(errors[i]);
    if (built[i].has_value()) rules.push_back(*std::move(built[i]));
  }
  return rules;
}

maras::StatusOr<std::vector<DrugAdrRule>> BuildRulesStage(
    const mining::FrequentItemsetResult& closed,
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db, const AnalyzerOptions& analyzer,
    const RunContext& ctx) {
  MARAS_ASSIGN_OR_RETURN(mining::ConceptLattice lattice,
                         BuildLatticeStage(closed, analyzer, ctx));
  return BuildRulesStage(closed, items, db, lattice, analyzer, ctx);
}

bool LatticeMcacEligible(const AnalyzerOptions& /*analyzer*/) { return true; }

maras::StatusOr<mining::ConceptLattice> BuildLatticeStage(
    const mining::FrequentItemsetResult& closed,
    const AnalyzerOptions& analyzer, const RunContext& ctx) {
  MARAS_ASSIGN_OR_RETURN(
      mining::ConceptLattice lattice,
      mining::ConceptLattice::Build(closed, analyzer.mining.num_threads, ctx));
  return lattice;
}

maras::StatusOr<std::vector<RankedMcac>> BuildRankedStage(
    const std::vector<DrugAdrRule>& rules,
    const mining::ItemDictionary& /*items*/,
    const mining::TransactionDatabase& db, RankingMethod method,
    const AnalyzerOptions& analyzer, const RunContext& ctx,
    const mining::ConceptLattice* lattice) {
  if (lattice == nullptr) {
    return maras::Status::InvalidArgument(
        "BuildRankedStage needs the concept lattice of the closed family");
  }
  MARAS_ASSIGN_OR_RETURN(std::vector<Mcac> mcacs,
                         BuildMcacs(rules, db, analyzer, ctx, *lattice));
  return RankMcacs(mcacs, method, analyzer.exclusiveness);
}

}  // namespace maras::core
