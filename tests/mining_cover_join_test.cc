// The cover join (mining/cover_join.h) against a brute-force Hasse diagram
// of strict inclusion, on random distinct families, subset chains,
// antichains, a hub item carried by every set but one and the empty set,
// at 1, 2 and 8 threads with byte-identical output; and its RunContext
// polling.

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "mining/cover_join.h"
#include "mining/itemset.h"
#include "util/random.h"
#include "util/run_context.h"

namespace maras::mining {
namespace {

using Covers = std::vector<std::vector<uint32_t>>;

bool IsProperSubset(const Itemset& a, const Itemset& b) {
  return a.size() < b.size() && IsSubset(a, b);
}

// covers[v]: every u with family[u] ⊊ family[v] and nothing in between.
Covers BruteForceCovers(const std::vector<Itemset>& family) {
  Covers covers(family.size());
  for (size_t v = 0; v < family.size(); ++v) {
    for (size_t u = 0; u < family.size(); ++u) {
      if (family[u].empty() || !IsProperSubset(family[u], family[v])) continue;
      bool maximal = true;
      for (size_t w = 0; w < family.size() && maximal; ++w) {
        maximal = !(IsProperSubset(family[u], family[w]) &&
                    IsProperSubset(family[w], family[v]));
      }
      if (maximal) covers[v].push_back(static_cast<uint32_t>(u));
    }
  }
  return covers;
}

Covers Join(const std::vector<Itemset>& family, ItemId item_bound,
            size_t threads) {
  std::vector<std::span<const ItemId>> sets(family.begin(), family.end());
  auto covers = CoveringSubsets(sets, item_bound, threads, RunContext{});
  EXPECT_TRUE(covers.ok()) << covers.status().ToString();
  return covers.ok() ? *std::move(covers) : Covers{};
}

void ExpectJoinIsHasseDiagram(const std::vector<Itemset>& family,
                              ItemId item_bound) {
  const Covers want = BruteForceCovers(family);
  for (size_t threads : {1, 2, 8}) {
    EXPECT_EQ(Join(family, item_bound, threads), want)
        << "at " << threads << " threads";
  }
}

// `sets` distinct random subsets of {0..items-1}, in random order; the
// empty set among them when `with_empty`.
std::vector<Itemset> RandomFamily(maras::Rng* rng, size_t sets, int items,
                                  int max_len, bool with_empty) {
  std::set<Itemset> seen;
  std::vector<Itemset> family;
  if (with_empty) {
    seen.insert({});
    family.push_back({});
  }
  while (family.size() < sets) {
    std::vector<ItemId> ids;
    for (size_t i = 1 + rng->Uniform(static_cast<uint64_t>(max_len)); i > 0;
         --i) {
      ids.push_back(static_cast<ItemId>(rng->Uniform(items)));
    }
    Itemset s = MakeItemset(std::move(ids));
    if (seen.insert(s).second) family.push_back(std::move(s));
  }
  for (size_t i = family.size(); i > 1; --i) {
    std::swap(family[i - 1], family[rng->Uniform(i)]);
  }
  return family;
}

class CoverJoinTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoverJoinTest, RandomFamilyCoversEqualBruteForceHasseDiagram) {
  maras::Rng rng(GetParam());
  for (int round = 0; round < 4; ++round) {
    const int items = 4 + static_cast<int>(rng.Uniform(10));
    const size_t sets = 1 + rng.Uniform(120);
    const int max_len = 1 + static_cast<int>(rng.Uniform(6));
    // A small universe cannot hold `sets` distinct sets of bounded size.
    size_t room = 0;
    for (int k = 1, c = items; k <= max_len && k <= items;
         ++k, c = c * (items - k + 1) / k) {
      room += static_cast<size_t>(c);
    }
    ExpectJoinIsHasseDiagram(
        RandomFamily(&rng, std::min(sets, room), items, max_len,
                     /*with_empty=*/round % 2 == 1),
        static_cast<ItemId>(items));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverJoinTest,
                         ::testing::Values(3, 7, 11, 19, 41, 97, 151, 233));

TEST(CoverJoinShapesTest, EmptyAndSingletonFamilies) {
  ExpectJoinIsHasseDiagram({}, 0);
  ExpectJoinIsHasseDiagram({{2, 5}}, 6);
  ExpectJoinIsHasseDiagram({{}}, 1);
}

TEST(CoverJoinShapesTest, LongChainCoversOneStepEach) {
  // {0} ⊊ {0,1} ⊊ ... ⊊ {0..39}, listed longest first.
  std::vector<Itemset> family;
  for (ItemId len = 40; len > 0; --len) {
    Itemset s;
    for (ItemId i = 0; i < len; ++i) s.push_back(i);
    family.push_back(std::move(s));
  }
  ExpectJoinIsHasseDiagram(family, 40);
  const Covers covers = Join(family, 40, 2);
  for (uint32_t v = 0; v + 1 < family.size(); ++v) {
    EXPECT_EQ(covers[v], std::vector<uint32_t>{v + 1});
  }
  EXPECT_TRUE(covers.back().empty());
}

TEST(CoverJoinShapesTest, AntichainHasNoCovers) {
  std::vector<Itemset> family;
  for (ItemId a = 0; a < 12; ++a) {
    for (ItemId b = a + 1; b < 12; ++b) family.push_back({a, b});
  }
  ExpectJoinIsHasseDiagram(family, 12);
  for (const auto& c : Join(family, 12, 8)) EXPECT_TRUE(c.empty());
}

TEST(CoverJoinShapesTest, HubItemInEverySetButOne) {
  // Item 0 sits in every set but {5}; key items are the rarer ones.
  std::vector<Itemset> family = {{5}};
  for (ItemId a = 1; a < 10; ++a) {
    family.push_back({0, a});
    for (ItemId b = a + 1; b < 10; ++b) family.push_back({0, a, b});
  }
  family.push_back({0});
  family.push_back({0, 1, 2, 5});
  ExpectJoinIsHasseDiagram(family, 10);
}

TEST(CoverJoinShapesTest, CancelledContextFails) {
  std::vector<Itemset> family;
  for (ItemId a = 0; a < 40; ++a) {
    family.push_back({a});
    for (ItemId b = a + 1; b < 40; ++b) family.push_back({a, b});
  }
  std::vector<std::span<const ItemId>> sets(family.begin(), family.end());
  maras::CancellationToken token;
  token.Cancel();
  RunContext ctx;
  ctx.cancel = &token;
  for (size_t threads : {1, 4}) {
    auto covers = CoveringSubsets(sets, 40, threads, ctx);
    EXPECT_TRUE(covers.status().IsCancelled()) << covers.status().ToString();
  }
}

}  // namespace
}  // namespace maras::mining
