// Property tests for the concept lattice over the mined closed family: the
// covering edges must equal the brute-force Hasse diagram of the
// subset-inclusion order, the build must be byte-identical at any thread
// count, and the greedy downward walk must land on closure(X) — the
// exactness invariant rule and MCAC construction rely on. The
// differential-oracle suites then prove the end-to-end claims: rules and
// ranked MCACs built over the lattice are byte-identical to the database
// stage and to per-subset database enumeration (the tests/oracles
// references), across seeds, thread counts, size caps and a degraded mine.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analysis_stages.h"
#include "core/analyzer.h"
#include "core/checkpoint.h"
#include "core/ranking.h"
#include "mining/closed_itemsets.h"
#include "mining/concept_lattice.h"
#include "mining/fpgrowth.h"
#include "test_util.h"
#include "tests/oracles/mcac_enumeration.h"
#include "tests/oracles/rules_database.h"
#include "util/random.h"
#include "util/run_context.h"

namespace maras::mining {
namespace {

TransactionDatabase RandomDb(maras::Rng* rng, int transactions, int items,
                             int max_len) {
  TransactionDatabase db;
  for (int t = 0; t < transactions; ++t) {
    Itemset txn;
    for (size_t i = 1 + rng->Uniform(static_cast<uint64_t>(max_len)); i > 0;
         --i) {
      txn.push_back(static_cast<ItemId>(rng->Uniform(items)));
    }
    db.Add(std::move(txn));
  }
  return db;
}

FrequentItemsetResult MineClosedFamily(const TransactionDatabase& db,
                                       size_t min_support) {
  auto mined = FpGrowth(MiningOptions{.min_support = min_support}).Mine(db);
  EXPECT_TRUE(mined.ok());
  return FilterClosed(*mined);
}

Itemset NodeItemset(const ConceptLattice& lattice, uint32_t node) {
  LatticeSpan<ItemId> items = lattice.NodeItems(node);
  return Itemset(items.begin(), items.end());
}

// Brute-force Hasse diagram: u covers v iff items(u) ⊊ items(v) and no
// third node sits strictly between them.
std::vector<std::vector<uint32_t>> BruteForceCovers(
    const ConceptLattice& lattice) {
  const uint32_t n = static_cast<uint32_t>(lattice.node_count());
  std::vector<Itemset> sets(n);
  for (uint32_t v = 0; v < n; ++v) sets[v] = NodeItemset(lattice, v);
  std::vector<std::vector<uint32_t>> covers(n);
  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t u = 0; u < n; ++u) {
      if (u == v || sets[u].size() >= sets[v].size()) continue;
      if (!IsSubset(sets[u], sets[v])) continue;
      bool covering = true;
      for (uint32_t w = 0; w < n && covering; ++w) {
        if (w == u || w == v) continue;
        if (sets[w].size() <= sets[u].size() ||
            sets[w].size() >= sets[v].size()) {
          continue;
        }
        if (IsSubset(sets[u], sets[w]) && IsSubset(sets[w], sets[v])) {
          covering = false;
        }
      }
      if (covering) covers[v].push_back(u);
    }
  }
  return covers;
}

class ConceptLatticeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConceptLatticeTest, NodesMirrorTheClosedFamily) {
  maras::Rng rng(GetParam());
  TransactionDatabase db =
      RandomDb(&rng, static_cast<int>(60 + GetParam() % 50), 9, 6);
  FrequentItemsetResult closed = MineClosedFamily(db, 2);
  const RunContext ctx;
  auto lattice = ConceptLattice::Build(closed, /*num_threads=*/4, ctx);
  ASSERT_TRUE(lattice.ok()) << lattice.status().ToString();
  ASSERT_EQ(lattice->node_count(), closed.size());
  for (uint32_t v = 0; v < lattice->node_count(); ++v) {
    const FrequentItemset& fi = closed.itemsets()[v];
    EXPECT_EQ(NodeItemset(*lattice, v), fi.items);
    EXPECT_EQ(lattice->NodeSupport(v), fi.support);
    EXPECT_EQ(lattice->FindNode(fi.items), v);
  }
  EXPECT_EQ(lattice->FindNode({ItemId{200}, ItemId{201}}),
            ConceptLattice::kNotFound);
}

TEST_P(ConceptLatticeTest, CoveringEdgesEqualBruteForceHasseDiagram) {
  maras::Rng rng(GetParam() + 3);
  TransactionDatabase db =
      RandomDb(&rng, static_cast<int>(50 + GetParam() % 60), 8, 6);
  FrequentItemsetResult closed = MineClosedFamily(db, 2);
  const RunContext ctx;
  auto lattice = ConceptLattice::Build(closed, /*num_threads=*/3, ctx);
  ASSERT_TRUE(lattice.ok()) << lattice.status().ToString();
  const std::vector<std::vector<uint32_t>> want = BruteForceCovers(*lattice);
  size_t total_edges = 0;
  for (uint32_t v = 0; v < lattice->node_count(); ++v) {
    LatticeSpan<uint32_t> got = lattice->Subsets(v);
    const std::vector<uint32_t> got_vec(got.begin(), got.end());
    EXPECT_EQ(got_vec, want[v]) << "covers of node " << v;
    total_edges += want[v].size();
  }
  EXPECT_EQ(lattice->edge_count(), total_edges);
  // Supersets must be the exact transpose, ascending per node.
  std::vector<std::vector<uint32_t>> transpose(lattice->node_count());
  for (uint32_t v = 0; v < lattice->node_count(); ++v) {
    for (uint32_t u : want[v]) transpose[u].push_back(v);
  }
  for (uint32_t u = 0; u < lattice->node_count(); ++u) {
    LatticeSpan<uint32_t> got = lattice->Supersets(u);
    EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), transpose[u])
        << "covering supersets of node " << u;
  }
}

TEST_P(ConceptLatticeTest, BuildIsIdenticalAtAnyThreadCount) {
  maras::Rng rng(GetParam() + 11);
  TransactionDatabase db = RandomDb(&rng, 80, 9, 6);
  FrequentItemsetResult closed = MineClosedFamily(db, 2);
  const RunContext ctx;
  auto reference = ConceptLattice::Build(closed, 1, ctx);
  ASSERT_TRUE(reference.ok());
  for (size_t threads : {2, 8}) {
    auto other = ConceptLattice::Build(closed, threads, ctx);
    ASSERT_TRUE(other.ok());
    ASSERT_EQ(other->node_count(), reference->node_count());
    ASSERT_EQ(other->edge_count(), reference->edge_count());
    for (uint32_t v = 0; v < reference->node_count(); ++v) {
      LatticeSpan<uint32_t> a = reference->Subsets(v);
      LatticeSpan<uint32_t> b = other->Subsets(v);
      EXPECT_EQ(std::vector<uint32_t>(a.begin(), a.end()),
                std::vector<uint32_t>(b.begin(), b.end()))
          << "node " << v << " at " << threads << " threads";
    }
  }
}

TEST_P(ConceptLatticeTest, DescentFromClosedNodeReachesClosure) {
  // Uncapped mine + descent start at a database-closed node: the walk must
  // land on closure(X), whose support is supp(X) — for every non-empty
  // subset X of the start node's itemset with frequent support.
  maras::Rng rng(GetParam() + 17);
  TransactionDatabase db = RandomDb(&rng, 70, 8, 5);
  FrequentItemsetResult closed = MineClosedFamily(db, 2);
  const RunContext ctx;
  auto lattice = ConceptLattice::Build(closed, 2, ctx);
  ASSERT_TRUE(lattice.ok());
  for (uint32_t v = 0; v < lattice->node_count(); ++v) {
    const Itemset node_items = NodeItemset(*lattice, v);
    if (node_items.size() > 6) continue;  // bound the 2^n sweep
    ASSERT_TRUE(IsClosedInDatabase(db, node_items));
    const size_t n = node_items.size();
    for (size_t mask = 1; mask < (size_t{1} << n); ++mask) {
      Itemset subset;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (size_t{1} << i)) subset.push_back(node_items[i]);
      }
      const uint32_t end = lattice->DescendToClosure(v, subset);
      ASSERT_NE(end, ConceptLattice::kNotFound);
      EXPECT_TRUE(lattice->NodeContains(end, subset)) << ToString(subset);
      EXPECT_EQ(lattice->NodeSupport(end), db.Support(subset))
          << ToString(subset) << " under node " << v;
      EXPECT_EQ(NodeItemset(*lattice, end), ClosureOf(db, subset))
          << ToString(subset);
    }
  }
}

TEST_P(ConceptLatticeTest, DescentIsExactFromEveryContainingNode) {
  // Subset supports come only from lattice descent (there is no memo or
  // bitmap fallback), so exactness must hold on every descent path: from
  // each lattice node containing X, the walk must reach a node whose
  // support is supp(X) counted directly in the database.
  maras::Rng rng(GetParam() + 23);
  TransactionDatabase db = RandomDb(&rng, 60, 8, 5);
  FrequentItemsetResult closed = MineClosedFamily(db, 2);
  const RunContext ctx;
  auto lattice = ConceptLattice::Build(closed, 2, ctx);
  ASSERT_TRUE(lattice.ok());
  size_t paths = 0;
  for (uint32_t v = 0; v < lattice->node_count(); ++v) {
    const Itemset node_items = NodeItemset(*lattice, v);
    if (node_items.size() > 5) continue;
    const size_t n = node_items.size();
    for (size_t mask = 1; mask < (size_t{1} << n); ++mask) {
      Itemset subset;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (size_t{1} << i)) subset.push_back(node_items[i]);
      }
      const uint64_t want = db.Support(subset);
      for (uint32_t u = 0; u < lattice->node_count(); ++u) {
        if (!lattice->NodeContains(u, subset)) continue;
        const uint32_t end = lattice->DescendToClosure(u, subset);
        ASSERT_NE(end, ConceptLattice::kNotFound);
        EXPECT_EQ(lattice->NodeSupport(end), want)
            << ToString(subset) << " from node " << u;
        ++paths;
      }
    }
  }
  EXPECT_GT(paths, 0u);
}

TEST(ConceptLatticeTest, EmptyFamilyBuildsEmptyLattice) {
  FrequentItemsetResult closed;
  const RunContext ctx;
  auto lattice = ConceptLattice::Build(closed, 4, ctx);
  ASSERT_TRUE(lattice.ok());
  EXPECT_EQ(lattice->node_count(), 0u);
  EXPECT_EQ(lattice->edge_count(), 0u);
  EXPECT_EQ(lattice->FindNode({ItemId{1}}), ConceptLattice::kNotFound);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConceptLatticeTest,
                         ::testing::Values(41, 97, 151, 233, 389));

// ---------------------------------------------------------------------------
// End-to-end oracle: lattice-backed MCAC construction must be byte-identical
// to plain per-subset enumeration, on every seed and thread count.
// ---------------------------------------------------------------------------

maras::test::MiniCorpus RandomCorpus(uint64_t seed) {
  maras::Rng rng(seed);
  maras::test::MiniCorpus corpus;
  std::vector<std::string> drugs, adrs;
  for (int i = 0; i < 8; ++i) drugs.push_back("DRUG" + std::to_string(i));
  for (int i = 0; i < 4; ++i) adrs.push_back("ADR" + std::to_string(i));
  for (int t = 0; t < 120; ++t) {
    maras::test::ReportSpec spec;
    const size_t n_drugs = 1 + rng.Uniform(4);
    const size_t n_adrs = 1 + rng.Uniform(2);
    for (size_t i = 0; i < n_drugs; ++i) {
      spec.drugs.push_back(drugs[rng.Uniform(drugs.size())]);
    }
    for (size_t i = 0; i < n_adrs; ++i) {
      spec.adrs.push_back(adrs[rng.Uniform(adrs.size())]);
    }
    corpus.Add(spec);
  }
  // A dense planted combination so multi-drug targets always exist.
  corpus.Add({{"DRUG0", "DRUG1", "DRUG2"}, {"ADR0"}}, 10);
  corpus.Add({{"DRUG0", "DRUG1"}, {"ADR0"}}, 6);
  return corpus;
}

// Runs mine -> closed -> lattice -> rules over `corpus` and ranks the
// target rules' MCACs twice: BuildRankedStage over the lattice into
// *latticed, and the enumeration oracle plus RankMcacs into *enumerated.
// *truncated reports whether the mine degraded.
void RankedBytes(const maras::test::MiniCorpus& corpus,
                 const core::AnalyzerOptions& options, std::string* latticed,
                 std::string* enumerated, bool* truncated = nullptr) {
  const RunContext ctx;
  auto mined = core::MineWithDegradation(corpus.db, options.mining,
                                         options.degradation);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  if (truncated != nullptr) *truncated = mined->truncated;
  auto closed = core::BuildClosedStage(*std::move(mined), corpus.items,
                                       options, ctx);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  auto lattice = core::BuildLatticeStage(closed->closed, options, ctx);
  ASSERT_TRUE(lattice.ok()) << lattice.status().ToString();
  auto rules = core::BuildRulesStage(closed->closed, corpus.items, corpus.db,
                                     *lattice, options, ctx);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  const core::RankingMethod method = core::RankingMethod::kExclusivenessLift;
  auto ranked = core::BuildRankedStage(*rules, corpus.items, corpus.db,
                                       method, options, ctx, &*lattice);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  ASSERT_GT(ranked->size(), 0u);
  *latticed = core::EncodeRankedMcacs(*ranked);
  auto oracle = core::EnumerateMcacs(*rules, corpus.db);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  *enumerated = core::EncodeRankedMcacs(
      core::RankMcacs(*oracle, method, options.exclusiveness));
}

// Small enough that an uncapped min_support-1 mine of a RandomCorpus trips
// it, large enough that an escalated mine fits.
constexpr size_t kDegradingBudgetBytes = size_t{1} << 14;

class LatticeMcacDifferentialOracleTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LatticeMcacDifferentialOracleTest,
       LatticeAndEnumerationAreByteIdentical) {
  maras::test::MiniCorpus corpus = RandomCorpus(GetParam());
  for (size_t cap : {0, 3, 5}) {
    std::string reference;
    for (size_t threads : {1, 2, 8}) {
      core::AnalyzerOptions options;
      options.mining.min_support = 2;
      options.mining.max_itemset_size = cap;
      options.mining.num_threads = threads;
      std::string latticed, enumerated;
      ASSERT_NO_FATAL_FAILURE(
          RankedBytes(corpus, options, &latticed, &enumerated));
      EXPECT_EQ(latticed, enumerated)
          << "cap=" << cap << " threads=" << threads;
      if (reference.empty()) reference = enumerated;
      EXPECT_EQ(latticed, reference)
          << "cap=" << cap << " threads=" << threads;
    }
  }
}

TEST_P(LatticeMcacDifferentialOracleTest, CappedMineStaysEligibleViaVerify) {
  // A size cap makes closed-in-the-family weaker than closed-in-the-database
  // at the cap; the rules stage's database check there keeps every target
  // a database-closed lattice node, so the descent stays exact.
  maras::test::MiniCorpus corpus = RandomCorpus(GetParam() + 1);
  core::AnalyzerOptions run;
  run.mining.min_support = 2;
  run.mining.max_itemset_size = 5;
  std::string latticed, enumerated;
  ASSERT_NO_FATAL_FAILURE(RankedBytes(corpus, run, &latticed, &enumerated));
  EXPECT_EQ(latticed, enumerated);
}

TEST_P(LatticeMcacDifferentialOracleTest, DegradedMineMatchesEnumeration) {
  // A budget that trips at the requested support: the mine escalates
  // min_support and the lattice of the escalated family must still give
  // the enumeration bytes.
  maras::test::MiniCorpus corpus = RandomCorpus(GetParam() + 2);
  for (size_t threads : {1, 8}) {
    maras::MemoryBudget budget(kDegradingBudgetBytes);
    RunContext governed;
    governed.budget = &budget;
    core::AnalyzerOptions run;
    run.mining.min_support = 1;
    run.mining.max_itemset_size = 0;
    run.mining.num_threads = threads;
    run.mining.context = &governed;
    run.degradation.enabled = true;
    run.degradation.max_retries = 10;
    std::string latticed, enumerated;
    bool truncated = false;
    ASSERT_NO_FATAL_FAILURE(
        RankedBytes(corpus, run, &latticed, &enumerated, &truncated));
    EXPECT_TRUE(truncated) << "threads=" << threads;
    EXPECT_EQ(latticed, enumerated) << "threads=" << threads;
  }
}

TEST(BuildRankedStageTest, NullLatticeIsInvalidArgument) {
  maras::test::MiniCorpus corpus = RandomCorpus(1001);
  const core::AnalyzerOptions options;
  const RunContext ctx;
  auto ranked = core::BuildRankedStage(
      {}, corpus.items, corpus.db, core::RankingMethod::kExclusivenessLift,
      options, ctx, /*lattice=*/nullptr);
  EXPECT_TRUE(ranked.status().IsInvalidArgument())
      << ranked.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeMcacDifferentialOracleTest,
                         ::testing::Values(1001, 2002, 3003, 4004));

// ---------------------------------------------------------------------------
// Rules oracle: the lattice-backed rules stage (supports from descents, the
// database asked only at the size cap) must encode byte-identically to the
// database stage (tests/oracles/rules_database: every candidate verified
// and counted in the database).
// ---------------------------------------------------------------------------

// Mines `corpus` under `options`, then encodes the rules of the closed
// family twice: the lattice-backed BuildRulesStage into *latticed and the
// database oracle into *database. *truncated reports whether the mine
// degraded.
void RulesBytes(const maras::test::MiniCorpus& corpus,
                const core::AnalyzerOptions& options, std::string* latticed,
                std::string* database, bool* truncated = nullptr) {
  const RunContext ctx;
  auto mined = core::MineWithDegradation(corpus.db, options.mining,
                                         options.degradation);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  if (truncated != nullptr) *truncated = mined->truncated;
  auto closed = core::BuildClosedStage(*std::move(mined), corpus.items,
                                       options, ctx);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  auto lattice = core::BuildLatticeStage(closed->closed, options, ctx);
  ASSERT_TRUE(lattice.ok()) << lattice.status().ToString();
  auto rules = core::BuildRulesStage(closed->closed, corpus.items, corpus.db,
                                     *lattice, options, ctx);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_GT(rules->size(), 0u);
  *latticed = core::EncodeRules(*rules);
  auto oracle =
      core::DatabaseRules(closed->closed, corpus.items, corpus.db, options);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  *database = core::EncodeRules(*oracle);
}

class RulesFromLatticeDifferentialOracleTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RulesFromLatticeDifferentialOracleTest,
       LatticeAndDatabaseRulesAreByteIdentical) {
  maras::test::MiniCorpus corpus = RandomCorpus(GetParam());
  for (size_t cap : {0, 3, 5}) {
    std::string reference;
    for (size_t threads : {1, 2, 8}) {
      core::AnalyzerOptions options;
      options.mining.min_support = 2;
      options.mining.max_itemset_size = cap;
      options.mining.num_threads = threads;
      std::string latticed, database;
      ASSERT_NO_FATAL_FAILURE(
          RulesBytes(corpus, options, &latticed, &database));
      EXPECT_EQ(latticed, database) << "cap=" << cap << " threads=" << threads;
      if (reference.empty()) reference = database;
      EXPECT_EQ(latticed, reference)
          << "cap=" << cap << " threads=" << threads;
    }
  }
}

TEST_P(RulesFromLatticeDifferentialOracleTest,
       DegradedMineMatchesDatabaseRules) {
  // The budget trips at the requested support, so the mine escalates
  // min_support: the family is complete at the escalated support, and the
  // lattice rules of it must still give the database bytes.
  maras::test::MiniCorpus corpus = RandomCorpus(GetParam() + 2);
  for (size_t cap : {0, 3}) {
    for (size_t threads : {1, 8}) {
      maras::MemoryBudget budget(kDegradingBudgetBytes);
      RunContext governed;
      governed.budget = &budget;
      core::AnalyzerOptions run;
      run.mining.min_support = 1;
      run.mining.max_itemset_size = cap;
      run.mining.num_threads = threads;
      run.mining.context = &governed;
      run.degradation.enabled = true;
      run.degradation.max_retries = 10;
      std::string latticed, database;
      bool truncated = false;
      ASSERT_NO_FATAL_FAILURE(
          RulesBytes(corpus, run, &latticed, &database, &truncated));
      EXPECT_TRUE(truncated) << "cap=" << cap << " threads=" << threads;
      EXPECT_EQ(latticed, database) << "cap=" << cap << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RulesFromLatticeDifferentialOracleTest,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005));

TEST(BuildRulesStageTest, PseudoClosedCandidateAtTheCapIsDropped) {
  // {A, B, X} only ever occurs with C, so it is not closed in the database;
  // under a cap of 3 its closure {A, B, C, X} is not mined, which leaves
  // {A, B, X} closed in the family. Only the at-cap database check can
  // drop it, and {A, B, C, X} is too large to be a candidate: no rules.
  maras::test::MiniCorpus corpus;
  corpus.Add({{"A", "B", "C"}, {"X"}}, 5);
  core::AnalyzerOptions options;
  options.mining.min_support = 2;
  options.mining.max_itemset_size = 3;
  const RunContext ctx;
  auto closed = MineClosed(corpus.db, options.mining);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  const Itemset pseudo =
      Union(corpus.Drugs({"A", "B"}), corpus.Adrs({"X"}));
  ASSERT_TRUE(closed->ContainsItemset(pseudo));
  auto lattice = core::BuildLatticeStage(*closed, options, ctx);
  ASSERT_TRUE(lattice.ok()) << lattice.status().ToString();
  auto rules = core::BuildRulesStage(*closed, corpus.items, corpus.db,
                                     *lattice, options, ctx);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_TRUE(rules->empty()) << core::EncodeRules(*rules).size();
}

TEST(BuildRulesStageTest, LatticeOfAnotherFamilyIsInvalidArgument) {
  maras::test::MiniCorpus corpus = RandomCorpus(1001);
  const core::AnalyzerOptions options;
  const RunContext ctx;
  auto closed = MineClosed(corpus.db, options.mining);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  ASSERT_GT(closed->size(), 0u);
  auto rules = core::BuildRulesStage(*closed, corpus.items, corpus.db,
                                     ConceptLattice{}, options, ctx);
  EXPECT_TRUE(rules.status().IsInvalidArgument()) << rules.status().ToString();
}

}  // namespace
}  // namespace maras::mining
