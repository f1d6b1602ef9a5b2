// Property tests for the concept lattice over the mined closed family: the
// covering edges must equal the brute-force Hasse diagram of the
// subset-inclusion order — on uncapped, size-capped (not closed under
// intersection), skewed and hand-built families — the build must be
// byte-identical at any thread count and honour cancellation and
// deadlines, and the greedy downward walk must land on closure(X) — the
// exactness invariant rule and MCAC construction rely on. The
// differential-oracle suites then prove the end-to-end claims: rules and
// ranked MCACs built over the lattice are byte-identical to the database
// stage and to per-subset database enumeration (the tests/oracles
// references), across seeds, thread counts, size caps and a degraded mine.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
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
#include "util/status.h"

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
  std::span<const ItemId> items = lattice.NodeItems(node);
  return Itemset(items.begin(), items.end());
}

// Brute-force Hasse diagram: u covers v iff items(u) ⊊ items(v) and no
// third node sits strictly between them. An empty-itemset node is never a
// cover: it carries no item, so no descent needs to reach it.
std::vector<std::vector<uint32_t>> BruteForceCovers(
    const ConceptLattice& lattice) {
  const uint32_t n = static_cast<uint32_t>(lattice.node_count());
  std::vector<Itemset> sets(n);
  for (uint32_t v = 0; v < n; ++v) sets[v] = NodeItemset(lattice, v);
  std::vector<std::vector<uint32_t>> covers(n);
  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t u = 0; u < n; ++u) {
      if (u == v || sets[u].empty() || sets[u].size() >= sets[v].size()) {
        continue;
      }
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

// Builds `family` at 1, 2 and 4 threads and checks Subsets against the
// brute-force Hasse diagram and Supersets against its exact transpose.
void ExpectCoversMatchBruteForce(const FrequentItemsetResult& family) {
  const RunContext ctx;
  for (size_t threads : {1, 2, 4}) {
    auto lattice = ConceptLattice::Build(family, threads, ctx);
    ASSERT_TRUE(lattice.ok()) << lattice.status().ToString();
    const std::vector<std::vector<uint32_t>> want = BruteForceCovers(*lattice);
    size_t total_edges = 0;
    std::vector<std::vector<uint32_t>> transpose(lattice->node_count());
    for (uint32_t v = 0; v < lattice->node_count(); ++v) {
      std::span<const uint32_t> got = lattice->Subsets(v);
      EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), want[v])
          << "covers of node " << v << " at " << threads << " threads";
      total_edges += want[v].size();
      for (uint32_t u : want[v]) transpose[u].push_back(v);
    }
    EXPECT_EQ(lattice->edge_count(), total_edges) << threads << " threads";
    for (uint32_t u = 0; u < lattice->node_count(); ++u) {
      std::span<const uint32_t> got = lattice->Supersets(u);
      EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), transpose[u])
          << "covering supersets of node " << u << " at " << threads
          << " threads";
    }
  }
}

// True when two nodes share items whose intersection is not a node: the
// family is not closed under intersection.
bool HasIntersectionGap(const FrequentItemsetResult& family) {
  const std::vector<FrequentItemset>& sets = family.itemsets();
  for (size_t a = 0; a < sets.size(); ++a) {
    for (size_t b = a + 1; b < sets.size(); ++b) {
      Itemset common;
      std::set_intersection(sets[a].items.begin(), sets[a].items.end(),
                            sets[b].items.begin(), sets[b].items.end(),
                            std::back_inserter(common));
      if (!common.empty() && family.SupportOf(common) == 0) return true;
    }
  }
  return false;
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
  ExpectCoversMatchBruteForce(MineClosedFamily(db, 2));
}

TEST_P(ConceptLatticeTest, CappedFamilyCoversEqualBruteForceHasseDiagram) {
  // A size-capped mine keeps pseudo-closed sets at the cap: the family is
  // not closed under intersection, and the covers must still be exact. The
  // planted block {10, 11, 12, 13} guarantees it: its pairs and triples are
  // pseudo-closed at caps 2 and 3, and their shared singletons and pairs
  // are not in the family.
  maras::Rng rng(GetParam() + 5);
  TransactionDatabase db =
      RandomDb(&rng, static_cast<int>(30 + GetParam() % 20), 8, 12);
  for (int copy = 0; copy < 2; ++copy) {
    db.Add({ItemId{10}, ItemId{11}, ItemId{12}, ItemId{13}});
  }
  for (size_t cap : {2, 3}) {
    auto mined = FpGrowth(MiningOptions{.min_support = 2,
                                        .max_itemset_size = cap})
                     .Mine(db);
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    const FrequentItemsetResult closed = FilterClosed(*mined);
    SCOPED_TRACE("cap=" + std::to_string(cap));
    EXPECT_TRUE(HasIntersectionGap(closed));
    ExpectCoversMatchBruteForce(closed);
  }
}

TEST_P(ConceptLatticeTest, SkewedFamilyCoversEqualBruteForceHasseDiagram) {
  // A hub item in every transaction but one sits in every node but {0}, so
  // it is a key item only for the hub singleton and the other items' key
  // lists carry the whole join.
  maras::Rng rng(GetParam() + 7);
  TransactionDatabase random =
      RandomDb(&rng, static_cast<int>(60 + GetParam() % 40), 8, 5);
  constexpr ItemId kHub = 8;
  TransactionDatabase db;
  db.Add({ItemId{0}});
  for (TransactionId t = 0; t < random.size(); ++t) {
    Itemset txn = random.transaction(t);
    txn.push_back(kHub);
    db.Add(MakeItemset(std::move(txn)));
  }
  const FrequentItemsetResult closed = MineClosedFamily(db, 2);
  size_t with_hub = 0;
  for (const FrequentItemset& fi : closed.itemsets()) {
    with_hub += std::binary_search(fi.items.begin(), fi.items.end(), kHub);
  }
  ASSERT_EQ(with_hub + 1, closed.size());
  ExpectCoversMatchBruteForce(closed);
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
      std::span<const uint32_t> a = reference->Subsets(v);
      std::span<const uint32_t> b = other->Subsets(v);
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

TEST(ConceptLatticeTest, EmptyItemsetNodeIsNeverACover) {
  // Hand-built family with an empty-itemset node and key-item ties (items 1
  // and 2 are carried by the same number of nodes).
  FrequentItemsetResult family;
  family.Add({}, 20);
  family.Add({ItemId{1}}, 9);
  family.Add({ItemId{2}}, 9);
  family.Add({ItemId{1}, ItemId{2}}, 6);
  family.Add({ItemId{0}, ItemId{3}}, 5);
  family.Add({ItemId{1}, ItemId{2}, ItemId{3}}, 3);
  family.Add({ItemId{0}, ItemId{1}, ItemId{2}, ItemId{3}}, 2);
  family.SortCanonically();
  ExpectCoversMatchBruteForce(family);

  const RunContext ctx;
  auto lattice = ConceptLattice::Build(family, 2, ctx);
  ASSERT_TRUE(lattice.ok()) << lattice.status().ToString();
  const uint32_t empty = lattice->FindNode({});
  ASSERT_NE(empty, ConceptLattice::kNotFound);
  EXPECT_TRUE(lattice->Subsets(empty).empty());
  EXPECT_TRUE(lattice->Supersets(empty).empty());
  for (uint32_t v = 0; v < lattice->node_count(); ++v) {
    for (uint32_t u : lattice->Subsets(v)) EXPECT_NE(u, empty) << "node " << v;
  }
}

// Every singleton and pair over 40 items: 820 nodes, far more than one
// poll stride per shard.
FrequentItemsetResult PairFamily() {
  FrequentItemsetResult family;
  for (ItemId a = 0; a < 40; ++a) {
    family.Add({a}, 100);
    for (ItemId b = a + 1; b < 40; ++b) family.Add({a, b}, 10);
  }
  family.SortCanonically();
  return family;
}

TEST(ConceptLatticeTest, CancelledBuildReportsLatticeBuild) {
  const FrequentItemsetResult family = PairFamily();
  maras::CancellationToken token;
  token.Cancel();
  RunContext ctx;
  ctx.cancel = &token;
  for (size_t threads : {1, 4}) {
    auto lattice = ConceptLattice::Build(family, threads, ctx);
    ASSERT_TRUE(lattice.status().IsCancelled()) << lattice.status().ToString();
    EXPECT_NE(lattice.status().ToString().find("lattice-build"),
              std::string::npos)
        << lattice.status().ToString();
  }
}

TEST(ConceptLatticeTest, ExpiredDeadlineBuildReportsLatticeBuild) {
  const FrequentItemsetResult family = PairFamily();
  RunContext ctx;
  ctx.deadline = maras::Deadline::AfterMillis(0);
  for (size_t threads : {1, 4}) {
    auto lattice = ConceptLattice::Build(family, threads, ctx);
    ASSERT_TRUE(lattice.status().IsDeadlineExceeded())
        << lattice.status().ToString();
    EXPECT_NE(lattice.status().ToString().find("lattice-build"),
              std::string::npos)
        << lattice.status().ToString();
  }
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
  const size_t min_support_used = mined->min_support_used;
  auto closed = core::BuildClosedStage(*std::move(mined), corpus.items,
                                       options, ctx);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  auto lattice = core::BuildLatticeStage(closed->closed, options, ctx);
  ASSERT_TRUE(lattice.ok()) << lattice.status().ToString();
  auto rules = core::BuildRulesStage(closed->closed, corpus.items, corpus.db,
                                     *lattice, options, ctx);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  // The diagnostics tell an over-escalated mine (high support, small
  // family) from a lattice that lost rules (usual support and family).
  ASSERT_GT(rules->size(), 0u)
      << "min_support_used=" << min_support_used
      << " closed_itemsets=" << closed->closed.size()
      << " lattice_nodes=" << lattice->node_count();
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
      SCOPED_TRACE("cap=" + std::to_string(cap) +
                   " threads=" + std::to_string(threads));
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

TEST_P(RulesFromLatticeDifferentialOracleTest,
       DegradedMineEscalatesAlikeAtEveryThreadCount) {
  // The mine charges its conditional-tree arenas by the largest tree per
  // depth, not by what each worker's scratch grew to, so where the budget
  // trips depends on the input alone. Repeats give differing schedules
  // room to differ.
  maras::test::MiniCorpus corpus = RandomCorpus(GetParam() + 2);
  for (size_t cap : {0, 3}) {
    size_t serial_support = 0;
    for (size_t threads : {1, 2, 8, 8, 8, 8}) {
      maras::MemoryBudget budget(kDegradingBudgetBytes);
      RunContext governed;
      governed.budget = &budget;
      MiningOptions mining;
      mining.min_support = 1;
      mining.max_itemset_size = cap;
      mining.num_threads = threads;
      mining.context = &governed;
      core::DegradationOptions degradation;
      degradation.enabled = true;
      degradation.max_retries = 10;
      auto mined = core::MineWithDegradation(corpus.db, mining, degradation);
      ASSERT_TRUE(mined.ok()) << mined.status().ToString();
      ASSERT_TRUE(mined->truncated);
      if (serial_support == 0) serial_support = mined->min_support_used;
      EXPECT_EQ(mined->min_support_used, serial_support)
          << "cap=" << cap << " threads=" << threads;
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
  ASSERT_GT(closed->SupportOf(pseudo), 0u);
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
