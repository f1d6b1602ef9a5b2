// DeriveSnapshotIndex (serve/snapshot_index.h) against the quadratic
// same-ADR scan (tests/oracles/snapshot_covers.h): the navigation lists,
// found by the cover join over target unions and filtered to equal ADR
// sets, must equal the scan's generalizations and their transpose on
// seeded random target families and on hand-shaped ones (no target, one
// target, one large ADR group, many singleton groups, long subset chains,
// antichains, equal or nested drug sets under different ADR sets), and on
// the targets of an analyzed generated quarter, whose targets must also be
// pairwise distinct.

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "core/ranking.h"
#include "faers/generator.h"
#include "faers/preprocess.h"
#include "mining/itemset.h"
#include "serve/snapshot_index.h"
#include "tests/oracles/snapshot_covers.h"
#include "util/random.h"

namespace maras::serve {
namespace {

using mining::Itemset;

// Distinct (drugs, ADRs) targets over typed ids, owning the id vectors the
// TargetIds spans borrow.
class TargetFamily {
 public:
  explicit TargetFamily(size_t item_count) : item_count_(item_count) {}

  void Add(Itemset drugs, Itemset adrs) {
    if (seen_.emplace(drugs, adrs).second) {
      owned_.emplace_back(std::move(drugs), std::move(adrs));
    }
  }

  size_t size() const { return owned_.size(); }

  void ExpectIndexMatchesScan() const {
    std::vector<TargetIds> targets;
    for (const auto& [drugs, adrs] : owned_) targets.push_back({drugs, adrs});
    const SnapshotIndex index = DeriveSnapshotIndex(targets, item_count_);
    const std::vector<std::vector<uint32_t>> want =
        SameAdrCoversByScan(targets);
    EXPECT_EQ(index.generalizations, want);
    std::vector<std::vector<uint32_t>> transpose(targets.size());
    for (uint32_t s = 0; s < want.size(); ++s) {
      for (uint32_t t : want[s]) transpose[t].push_back(s);
    }
    EXPECT_EQ(index.specializations, transpose);
  }

 private:
  size_t item_count_;
  std::set<std::pair<Itemset, Itemset>> seen_;
  std::vector<std::pair<Itemset, Itemset>> owned_;
};

// Ids 0..items-1, each a drug or an ADR at random, so drug and ADR ids
// interleave and a target's union is a real merge.
struct TypedUniverse {
  std::vector<mining::ItemId> drugs;
  std::vector<mining::ItemId> adrs;
};

TypedUniverse RandomUniverse(maras::Rng* rng, int drugs, int adrs) {
  TypedUniverse u;
  for (int id = 0; id < drugs + adrs; ++id) {
    const bool is_drug =
        static_cast<int>(u.adrs.size()) == adrs ||
        (static_cast<int>(u.drugs.size()) < drugs && rng->Bernoulli(0.5));
    (is_drug ? u.drugs : u.adrs).push_back(static_cast<mining::ItemId>(id));
  }
  return u;
}

Itemset Pick(maras::Rng* rng, const std::vector<mining::ItemId>& from,
             size_t max_len) {
  std::vector<mining::ItemId> ids;
  for (size_t i = 1 + rng->Uniform(max_len); i > 0; --i) {
    ids.push_back(from[rng->Uniform(from.size())]);
  }
  return mining::MakeItemset(std::move(ids));
}

class SnapshotIndexDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotIndexDifferentialTest, RandomFamiliesMatchTheScan) {
  maras::Rng rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    const int drugs = 3 + static_cast<int>(rng.Uniform(10));
    const int adrs = 1 + static_cast<int>(rng.Uniform(5));
    const TypedUniverse u = RandomUniverse(&rng, drugs, adrs);
    // A few ADR sets, so groups hold many targets.
    std::vector<Itemset> adr_sets;
    for (size_t i = 1 + rng.Uniform(6); i > 0; --i) {
      adr_sets.push_back(Pick(&rng, u.adrs, 3));
    }
    TargetFamily family(u.drugs.size() + u.adrs.size());
    for (size_t i = rng.Uniform(200); i > 0; --i) {
      family.Add(Pick(&rng, u.drugs, 6),
                 adr_sets[rng.Uniform(adr_sets.size())]);
    }
    family.ExpectIndexMatchesScan();
  }
}

TEST_P(SnapshotIndexDifferentialTest, OneLargeAdrGroupMatchesTheScan) {
  maras::Rng rng(GetParam());
  const TypedUniverse u = RandomUniverse(&rng, 14, 2);
  TargetFamily family(16);
  for (int i = 0; i < 400; ++i) family.Add(Pick(&rng, u.drugs, 7), u.adrs);
  family.ExpectIndexMatchesScan();
}

TEST_P(SnapshotIndexDifferentialTest, SingletonGroupsMatchTheScan) {
  // Every ADR set is its own group, but drug sets nest across groups, so
  // many union covers join targets of different ADR sets.
  maras::Rng rng(GetParam());
  const TypedUniverse u = RandomUniverse(&rng, 8, 10);
  TargetFamily family(18);
  std::set<Itemset> used;
  for (int i = 0; i < 300; ++i) {
    Itemset adrs = Pick(&rng, u.adrs, 4);
    if (used.insert(adrs).second) family.Add(Pick(&rng, u.drugs, 5), adrs);
  }
  family.ExpectIndexMatchesScan();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotIndexDifferentialTest,
                         ::testing::Values(3, 7, 11, 19, 41, 97, 151, 233,
                                           389, 1009));

TEST(SnapshotIndexShapesTest, NoTargetAndOneTarget) {
  TargetFamily none(4);
  none.ExpectIndexMatchesScan();
  TargetFamily one(4);
  one.Add({0, 2}, {3});
  one.ExpectIndexMatchesScan();
}

TEST(SnapshotIndexShapesTest, LongChainsUnderTwoAdrSets) {
  // Drugs 0..29, ADRs 30 and 31. {0} ⊊ {0,1} ⊊ ... under {30}, and every
  // second prefix again under {30, 31}: the union order links the two
  // chains, the navigation must not.
  TargetFamily family(32);
  for (mining::ItemId len = 30; len > 0; --len) {
    Itemset drugs;
    for (mining::ItemId i = 0; i < len; ++i) drugs.push_back(i);
    family.Add(drugs, {30});
    if (len % 2 == 0) family.Add(drugs, {30, 31});
  }
  family.ExpectIndexMatchesScan();
}

TEST(SnapshotIndexShapesTest, AntichainHasNoNavigation) {
  TargetFamily family(13);
  for (mining::ItemId a = 0; a < 12; ++a) {
    for (mining::ItemId b = a + 1; b < 12; ++b) family.Add({a, b}, {12});
  }
  family.ExpectIndexMatchesScan();
}

TEST(SnapshotIndexShapesTest, OverlappingDrugSetsUnderDifferentAdrSets) {
  // Drugs 1, 3, 5, 7; ADRs 0, 2, 4 (ids interleave). Equal and nested drug
  // sets under equal, nested and disjoint ADR sets.
  TargetFamily family(8);
  for (const Itemset& adrs : {Itemset{0}, Itemset{2}, Itemset{0, 2},
                              Itemset{0, 2, 4}}) {
    family.Add({1, 3}, adrs);
    family.Add({1, 3, 5}, adrs);
    family.Add({1, 3, 5, 7}, adrs);
  }
  family.Add({1}, {0});
  family.Add({5, 7}, {0, 2, 4});
  family.Add({3, 7}, {2});
  family.ExpectIndexMatchesScan();
}

// The pipeline's own targets: one per ranked MCAC, each a distinct rule.
TEST(SnapshotIndexTest, AnalyzedTargetsAreDistinctAndMatchTheScan) {
  faers::GeneratorConfig config;
  config.n_reports = 3000;
  config.n_drugs = 300;
  config.n_adrs = 120;
  config.seed = 23;
  auto dataset = faers::SyntheticGenerator(config).Generate();
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  auto pre = faers::Preprocessor(faers::PreprocessOptions{}).Process(*dataset);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  core::AnalyzerOptions options;
  options.mining.min_support = 4;
  options.mining.max_itemset_size = 6;
  auto analysis = core::MarasAnalyzer(options).Analyze(*pre);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  const std::vector<core::RankedMcac> ranked =
      core::RankMcacs(analysis->mcacs, core::RankingMethod::kExclusivenessLift,
                      options.exclusiveness);
  ASSERT_GT(ranked.size(), 10u);

  TargetFamily family(pre->items.size());
  for (const core::RankedMcac& entry : ranked) {
    family.Add(entry.mcac.target.drugs, entry.mcac.target.adrs);
  }
  EXPECT_EQ(family.size(), ranked.size()) << "two signals share a target";
  family.ExpectIndexMatchesScan();
}

}  // namespace
}  // namespace maras::serve
