// Property tests for the concept lattice over the mined closed family: the
// covering edges must equal the brute-force Hasse diagram of the
// subset-inclusion order, the build must be byte-identical at any thread
// count, and the greedy downward walk must land on closure(X) — the
// exactness invariant the lattice-backed MCAC construction relies on.
// The differential-oracle suite then proves the end-to-end claim: ranked
// MCACs built over the lattice are byte-identical to plain enumeration,
// across seeds and thread counts.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis_stages.h"
#include "core/analyzer.h"
#include "core/checkpoint.h"
#include "core/ranking.h"
#include "mining/closed_itemsets.h"
#include "mining/concept_lattice.h"
#include "mining/fpgrowth.h"
#include "test_util.h"
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
      EXPECT_EQ(lattice->NodeSupport(end), db.Support(subset))
          << ToString(subset) << " under node " << v;
      EXPECT_EQ(NodeItemset(*lattice, end), ClosureOf(db, subset))
          << ToString(subset);
    }
  }
}

TEST_P(ConceptLatticeTest, SubsetSupportCacheIsExactOnEveryPath) {
  maras::Rng rng(GetParam() + 23);
  TransactionDatabase db = RandomDb(&rng, 60, 8, 5);
  FrequentItemsetResult closed = MineClosedFamily(db, 2);
  const RunContext ctx;
  auto lattice = ConceptLattice::Build(closed, 2, ctx);
  ASSERT_TRUE(lattice.ok());
  SubsetSupportCache cache(&db);
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
      // Lattice path, memo path, and forced bitmap fallback must agree.
      EXPECT_EQ(cache.Support(subset, &*lattice, v), want);
      EXPECT_EQ(cache.Support(subset, &*lattice, v), want);
      EXPECT_EQ(cache.Support(subset, nullptr, ConceptLattice::kNotFound),
                want);
    }
  }
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

// Concurrent publish/probe stress for the sharded memo, aimed at the tsan
// preset: exactness must hold under contention, and the relaxed-atomic
// counter contract (concept_lattice.h) must deliver what it promises — the
// structural invariant (stats() totals equal the per-shard sums, even
// mid-flight) plus monotonicity while probing, and exact accounting at
// quiescence.
TEST(SubsetSupportCacheStressTest, ConcurrentProbesStayExactAndAccounted) {
  maras::Rng rng(733);
  TransactionDatabase db = RandomDb(&rng, 60, 8, 5);
  FrequentItemsetResult closed = MineClosedFamily(db, 2);
  const RunContext ctx;
  auto lattice = ConceptLattice::Build(closed, 2, ctx);
  ASSERT_TRUE(lattice.ok());

  // Worklist of (subset, start node, expected support), oracle computed
  // serially up front so worker threads only read it.
  struct Probe {
    Itemset subset;
    uint32_t node;
    uint64_t want;
  };
  std::vector<Probe> probes;
  for (uint32_t v = 0; v < lattice->node_count(); ++v) {
    const Itemset node_items = NodeItemset(*lattice, v);
    if (node_items.size() > 4) continue;
    const size_t n = node_items.size();
    for (size_t mask = 1; mask < (size_t{1} << n); ++mask) {
      Itemset subset;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (size_t{1} << i)) subset.push_back(node_items[i]);
      }
      probes.push_back({subset, v, db.Support(subset)});
    }
  }
  ASSERT_GT(probes.size(), 20u);

  SubsetSupportCache cache(&db);
  constexpr int kWorkers = 4;
  constexpr int kRounds = 8;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};

  // A stats reader races the probes: the totals==shard-sums invariant is
  // structural (single gather) and must hold at every instant, and probes()
  // must be monotone across successive gathers.
  std::thread stats_reader([&] {
    uint64_t last_probes = 0;
    uint64_t reads = 0;
    while (!done.load(std::memory_order_acquire) || reads < 3) {
      const SubsetSupportCache::Stats s = cache.stats();
      uint64_t hit_sum = 0, miss_sum = 0, fb_sum = 0;
      for (const SubsetSupportCache::ShardStats& row : s.shards) {
        hit_sum += row.hits;
        miss_sum += row.misses;
        fb_sum += row.fallbacks;
      }
      if (s.hits != hit_sum || s.misses != miss_sum || s.fallbacks != fb_sum ||
          s.probes() < last_probes) {
        mismatches.fetch_add(1);
      }
      last_probes = s.probes();
      ++reads;
    }
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < probes.size(); ++i) {
          // Stagger start offsets so threads collide on different shards.
          const Probe& p = probes[(i + static_cast<size_t>(w) * 7) %
                                  probes.size()];
          // Alternate lattice path and forced bitmap fallback.
          const uint64_t got =
              (round % 2 == 0)
                  ? cache.Support(p.subset, &*lattice, p.node)
                  : cache.Support(p.subset, nullptr,
                                  ConceptLattice::kNotFound);
          if (got != p.want) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  done.store(true, std::memory_order_release);
  stats_reader.join();

  EXPECT_EQ(mismatches.load(), 0u);

  // Quiescence: every Support() call bumped exactly one of hits/misses, and
  // every fallback was one of the misses.
  const SubsetSupportCache::Stats s = cache.stats();
  const uint64_t total_calls =
      uint64_t{kWorkers} * uint64_t{kRounds} * probes.size();
  EXPECT_EQ(s.probes(), total_calls);
  EXPECT_EQ(s.hits + s.misses, total_calls);
  EXPECT_LE(s.fallbacks, s.misses);
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.misses, 0u);
  EXPECT_EQ(s.shards.size(), SubsetSupportCache::kShardCount);
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

// Encodes BuildRankedStage's output over `corpus` into *encoded, with
// subset supports from the concept lattice or (use_lattice = false) from
// plain enumeration.
void RankedBytes(const maras::test::MiniCorpus& corpus,
                 const core::AnalyzerOptions& options, bool use_lattice,
                 std::string* encoded) {
  const RunContext ctx;
  auto mined = core::MineWithDegradation(corpus.db, options.mining,
                                         options.degradation);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  auto closed = core::BuildClosedStage(*std::move(mined), corpus.items,
                                       options, ctx);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  auto rules = core::BuildRulesStage(closed->closed, corpus.items, corpus.db,
                                     options, ctx);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  auto lattice = core::BuildLatticeStage(closed->closed, options, ctx);
  ASSERT_TRUE(lattice.ok()) << lattice.status().ToString();
  auto ranked = core::BuildRankedStage(
      *rules, corpus.items, corpus.db, core::RankingMethod::kExclusivenessLift,
      options, ctx, use_lattice ? &*lattice : nullptr);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  ASSERT_GT(ranked->size(), 0u);
  *encoded = core::EncodeRankedMcacs(*ranked);
}

class LatticeMcacDifferentialOracleTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LatticeMcacDifferentialOracleTest,
       LatticeAndEnumerationAreByteIdentical) {
  maras::test::MiniCorpus corpus = RandomCorpus(GetParam());
  std::string reference;
  for (size_t threads : {1, 2, 8}) {
    for (bool use_lattice : {false, true}) {
      core::AnalyzerOptions options;
      options.mining.min_support = 2;
      options.mining.num_threads = threads;
      ASSERT_TRUE(core::LatticeMcacEligible(options));
      std::string encoded;
      ASSERT_NO_FATAL_FAILURE(
          RankedBytes(corpus, options, use_lattice, &encoded));
      if (reference.empty()) {
        reference = encoded;
      } else {
        EXPECT_EQ(encoded, reference)
            << "threads=" << threads << " lattice=" << use_lattice;
      }
    }
  }
}

TEST_P(LatticeMcacDifferentialOracleTest, CappedMineStaysEligibleViaVerify) {
  // With a size cap the lattice path is only exact when targets are
  // database-verified; the eligibility gate must encode exactly that.
  core::AnalyzerOptions options;
  options.mining.max_itemset_size = 5;
  options.verify_closed_in_db = false;
  EXPECT_FALSE(core::LatticeMcacEligible(options));
  options.verify_closed_in_db = true;
  EXPECT_TRUE(core::LatticeMcacEligible(options));

  // And with the cap + verification, output still matches enumeration.
  maras::test::MiniCorpus corpus = RandomCorpus(GetParam() + 1);
  core::AnalyzerOptions run;
  run.mining.min_support = 2;
  run.mining.max_itemset_size = 5;
  std::string latticed, enumerated;
  ASSERT_NO_FATAL_FAILURE(RankedBytes(corpus, run, true, &latticed));
  ASSERT_NO_FATAL_FAILURE(RankedBytes(corpus, run, false, &enumerated));
  EXPECT_EQ(latticed, enumerated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeMcacDifferentialOracleTest,
                         ::testing::Values(1001, 2002, 3003, 4004));

}  // namespace
}  // namespace maras::mining
