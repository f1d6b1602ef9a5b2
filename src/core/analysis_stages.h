#ifndef MARAS_CORE_ANALYSIS_STAGES_H_
#define MARAS_CORE_ANALYSIS_STAGES_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.h"

namespace maras::core {

// ---------------------------------------------------------------------------
// The MARAS analysis (Fig. 1.1) as one stage sequence:
//
//   mine -> closed -> lattice -> rules -> MCACs -> rank
//
// RunAnalysisStages is the only place the sequence is written down, and the
// only place the mine runs: MineWithDegradation under the caller's run
// context. It has two callers that differ only in the data they pass:
//
//   * MarasAnalyzer::Analyze passes analyzer.mining.context, no checkpoint
//     dir, and stops before ranking: its callers rank AnalysisResult::mcacs
//     themselves.
//   * MultiQuarterPipeline::RunAnalyzed passes its MultiQuarterOptions'
//     context and checkpoints, resumes and fires stage hooks per those
//     options, on the corpus pooled by its quarter stage.
//
// The quarter stage before it is written down once too, file-local to
// core/multi_quarter.cc: MultiQuarterPipeline::Run and RunAnalyzed both
// load each quarter with ProcessQuarter on the num_threads fan-out, and
// replay and publish its "quarter-<label>" checkpoint through the two
// primitives below, TryResumeStage and PublishStage.
//
// Checkpointed stages are "closed", "rules" and "ranked" (plus one
// "quarter-<label>" stage per quarter). The mine is not
// checkpointed: it runs only when "closed" is not replayed. The
// concept lattice is not checkpointed either: it is a pure function of the
// closed family, built at most once, on first use by "rules" or "ranked",
// and not at all when both are replayed. It is the one support oracle of
// both stages: every rule's antecedent and consequent support and every
// MCAC context support is a descent in it from the target's node
// (LatticeSupport). Every target is database-closed — below the size cap
// because the family is complete at one support, at the cap because the
// rules stage asks the database — so every descent is exact.
// Stage names and payload codecs (core/checkpoint.h) are a contract with
// existing checkpoint directories. A resumed run replays stages in order
// until the first one it computes; every later stage is computed too.
// A replayed "closed" must come from the same mining options, since the
// rules stage reads the cap from analyzer.mining.max_itemset_size: a family
// holding an itemset past a non-zero cap is rejected and recomputed, but a
// family mined under a smaller cap (or a higher support) cannot be told
// apart and would yield wrong rule measures.
//
// Once the frequent family entering the closed stage is equal, every
// downstream artifact is equal, so byte identity across the two callers
// holds by construction. Each stage is deterministic for fixed inputs at any
// thread count (fan-outs write disjoint slots and reduce in input order) and
// polls `ctx` cooperatively like the rest of the pipeline.
// ---------------------------------------------------------------------------

// Runs the sequence over `items`/`db` and fills every field of `out` except
// `run`. Every stage runs under `context` (nullptr = ungoverned); the mine is
// MineWithDegradation over analyzer.mining, with its context replaced by
// `context`, and analyzer.degradation. Checkpointing reads only
// checkpoint_dir, resume and stage_hook from `checkpoints`; a default
// MultiQuarterOptions runs without it. With `method` set the sequence ranks
// into out->ranked; with nullopt it stops after MCAC construction and moves
// the unranked MCACs, in rule order, to *unranked. Resume notes go to
// out->notes first, then the mine's degradation notes.
maras::Status RunAnalysisStages(const mining::ItemDictionary& items,
                                const mining::TransactionDatabase& db,
                                const AnalyzerOptions& analyzer,
                                const MultiQuarterOptions& checkpoints,
                                const RunContext* context,
                                std::optional<RankingMethod> method,
                                SurveillanceAnalysis* out,
                                std::vector<Mcac>* unranked = nullptr);

// When resuming (checkpoints.checkpoint_dir set and checkpoints.resume),
// runs `load`, which reads and decodes `stage`'s checkpoint, and returns
// whether the stage was replayed; a replay counts in out->stages_resumed.
// NotFound is silent (nothing written yet); any other failure adds a
// recompute note to out->notes, so a degraded resume is visible.
bool TryResumeStage(const MultiQuarterOptions& checkpoints,
                    const std::string& stage,
                    const std::function<maras::Status()>& load,
                    SurveillanceAnalysis* out);

// Publishes a computed stage: `payload` becomes its checkpoint when
// checkpoints.checkpoint_dir is set, then checkpoints.stage_hook fires; a
// false return from the hook is kCancelled ("injected crash at stage ...").
maras::Status PublishStage(const MultiQuarterOptions& checkpoints,
                           const std::string& stage,
                           const std::string& payload);

// Closed stage: rule-space statistics over the pre-filter family, then the
// closed-set filter. Consumes `mined`, so the frequent family is freed once
// the filter finishes.
maras::StatusOr<ClosedCheckpoint> BuildClosedStage(
    GovernedMineResult mined, const mining::ItemDictionary& items,
    const AnalyzerOptions& analyzer, const RunContext& ctx);

// Rules stage: multi-drug target rule generation from the closed family,
// every measure from `lattice`, which must be BuildLatticeStage's lattice of
// `closed` (InvalidArgument when its node count differs). A candidate's
// support is its mined support; antecedent and consequent supports are
// LatticeSupport descents from its node. `closed` must be complete at one
// min_support and mined under analyzer.mining.max_itemset_size, so that
// below that cap closed in the family is closed in the database; a
// candidate at the cap is kept only if IsClosedInDatabase confirms it, the
// one database query of the stage. Nothing here checks that the family was
// mined under this cap: a family mined under a smaller one yields candidates
// that are not database-closed and wrong confidence and lift.
maras::StatusOr<std::vector<DrugAdrRule>> BuildRulesStage(
    const mining::FrequentItemsetResult& closed,
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db,
    const mining::ConceptLattice& lattice, const AnalyzerOptions& analyzer,
    const RunContext& ctx);

// BuildLatticeStage, then the rules stage above. Kept only because
// perfbench's RunStaged calls it, like LatticeMcacEligible; the benchmark
// change that retires RunStaged deletes it.
maras::StatusOr<std::vector<DrugAdrRule>> BuildRulesStage(
    const mining::FrequentItemsetResult& closed,
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db, const AnalyzerOptions& analyzer,
    const RunContext& ctx);

// Always true: MCAC construction has one path, the lattice descent. Kept
// only because perfbench's RunStaged calls it; the benchmark change that
// retires RunStaged deletes it.
bool LatticeMcacEligible(const AnalyzerOptions& analyzer);

// Lattice step: the concept lattice over the closed family — node arenas
// plus covering edges, built in parallel, a pure function of `closed`.
maras::StatusOr<mining::ConceptLattice> BuildLatticeStage(
    const mining::FrequentItemsetResult& closed,
    const AnalyzerOptions& analyzer, const RunContext& ctx);

// MCAC construction for the target rules (BuildMcac on the rule fan-out,
// every context support a descent in `lattice`), then RankMcacs. `lattice`
// must be BuildLatticeStage's lattice of the closed family the rules came
// from; nullptr is InvalidArgument. `items` is unused.
maras::StatusOr<std::vector<RankedMcac>> BuildRankedStage(
    const std::vector<DrugAdrRule>& rules,
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db, RankingMethod method,
    const AnalyzerOptions& analyzer, const RunContext& ctx,
    const mining::ConceptLattice* lattice);

}  // namespace maras::core

#endif  // MARAS_CORE_ANALYSIS_STAGES_H_
