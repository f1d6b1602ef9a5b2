// Differential tests for mining/bitmap.h. The materializing AND and the
// in-place AND are checked against std::set_intersection, through the
// non-empty result they return and the tids they leave behind, over
// multi-seed random tid universes at several densities, plus the edge
// shapes the word-packed representation makes dangerous: exact word
// boundaries, all-zero and all-one bitmaps, trailing partial words, an
// in-place AND whose operand is the accumulator itself, and long bitmaps.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mining/bitmap.h"
#include "util/random.h"

namespace maras::mining {
namespace {

using Tids = std::vector<TransactionId>;

// Sorted unique tid sample of `universe` where each tid is kept with
// probability `density`.
Tids RandomTids(maras::Rng* rng, size_t universe, double density) {
  Tids tids;
  for (size_t t = 0; t < universe; ++t) {
    if (rng->Bernoulli(density)) tids.push_back(static_cast<TransactionId>(t));
  }
  return tids;
}

TidBitmap FromTids(const Tids& tids, size_t universe) {
  TidBitmap bm(universe);
  for (TransactionId tid : tids) bm.Set(tid);
  return bm;
}

// Every tid in [0, universe).
TidBitmap Full(size_t universe) {
  TidBitmap bm(universe);
  for (size_t t = 0; t < universe; ++t) bm.Set(static_cast<TransactionId>(t));
  return bm;
}

Tids OracleIntersect(const Tids& a, const Tids& b) {
  Tids out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// Bits at and beyond `universe` in the trailing partial word stay zero.
void ExpectTrailingBitsZero(const TidBitmap& bm) {
  if (bm.word_count() == 0) return;
  const size_t tail = bm.universe() % kBitmapWordBits;
  if (tail == 0) return;
  const BitmapWord last = bm.words()[bm.word_count() - 1];
  EXPECT_EQ(last & ~((BitmapWord{1} << tail) - 1), BitmapWord{0})
      << "universe " << bm.universe();
}

// --------------------------------------------------------------------------
// Deterministic edge shapes.
// --------------------------------------------------------------------------

TEST(BitmapKernelTest, EmptyUniverseIsInertEverywhere) {
  TidBitmap a(0), b(0);
  EXPECT_EQ(a.word_count(), 0u);
  EXPECT_TRUE(a.ToTids().empty());
  TidBitmap out(10);
  EXPECT_FALSE(BitmapAnd(a, b, &out));
  EXPECT_EQ(out.universe(), 0u);
  EXPECT_FALSE(BitmapAndInto(&a, b));
  EXPECT_TRUE(a.ToTids().empty());
}

TEST(BitmapKernelTest, SetAndTestAcrossWordBoundaries) {
  const size_t universe = 200;
  TidBitmap bm(universe);
  const Tids probes = {0, 1, 62, 63, 64, 65, 127, 128, 191, 199};
  for (TransactionId tid : probes) bm.Set(tid);
  for (TransactionId tid : probes) {
    EXPECT_TRUE(bm.Test(tid)) << tid;
  }
  EXPECT_FALSE(bm.Test(2));
  EXPECT_FALSE(bm.Test(66));
  EXPECT_FALSE(bm.Test(198));
  // Out-of-universe probes answer false instead of reading out of range.
  EXPECT_FALSE(bm.Test(200));
  EXPECT_FALSE(bm.Test(100000));
  EXPECT_EQ(bm.ToTids(), probes);
  ExpectTrailingBitsZero(bm);
}

TEST(BitmapKernelTest, AllZeroAndAllOneOperands) {
  // Universes on, just below and just past a word boundary.
  for (size_t universe : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 320u}) {
    const TidBitmap zero(universe);
    const TidBitmap full = Full(universe);
    TidBitmap out;
    EXPECT_TRUE(BitmapAnd(full, full, &out)) << universe;
    ExpectTrailingBitsZero(out);
    const Tids all = out.ToTids();
    ASSERT_EQ(all.size(), universe) << universe;
    EXPECT_EQ(all.back(), static_cast<TransactionId>(universe - 1));
    EXPECT_FALSE(BitmapAnd(full, zero, &out)) << universe;
    EXPECT_TRUE(out.ToTids().empty()) << universe;
    EXPECT_FALSE(BitmapAnd(zero, zero, &out)) << universe;
    TidBitmap acc = full;
    EXPECT_TRUE(BitmapAndInto(&acc, full)) << universe;
    EXPECT_EQ(acc.ToTids(), all) << universe;
    EXPECT_FALSE(BitmapAndInto(&acc, zero)) << universe;
    EXPECT_TRUE(acc.ToTids().empty()) << universe;
  }
}

TEST(BitmapKernelTest, InPlaceAndWithItselfKeepsEveryBit) {
  // The accumulator is also the operand: every word is read and written
  // through the same storage.
  maras::Rng rng(0xA11A5);
  for (size_t universe : {1u, 64u, 65u, 1000u}) {
    for (double density : {0.0, 0.3, 1.0}) {
      const Tids tids = RandomTids(&rng, universe, density);
      TidBitmap acc = FromTids(tids, universe);
      EXPECT_EQ(BitmapAndInto(&acc, acc), !tids.empty()) << universe;
      EXPECT_EQ(acc.ToTids(), tids) << universe;
      ExpectTrailingBitsZero(acc);
    }
  }
}

TEST(BitmapKernelTest, ResetClearsAndResizes) {
  TidBitmap bm = Full(100);
  bm.Reset(40);
  EXPECT_EQ(bm.universe(), 40u);
  EXPECT_TRUE(bm.ToTids().empty());
  bm.Set(39);
  bm.Reset(100);
  EXPECT_EQ(bm.universe(), 100u);
  EXPECT_TRUE(bm.ToTids().empty());
}

// --------------------------------------------------------------------------
// Multi-seed property tests against the scalar oracles.
// --------------------------------------------------------------------------

class BitmapKernelPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitmapKernelPropertyTest, DenseSparseConversionsRoundTrip) {
  maras::Rng rng(GetParam());
  for (size_t universe : {1u, 63u, 64u, 65u, 257u, 1024u, 4099u}) {
    for (double density : {0.0, 0.01, 0.2, 0.9, 1.0}) {
      Tids tids = RandomTids(&rng, universe, density);
      TidBitmap bm = FromTids(tids, universe);
      EXPECT_EQ(bm.universe(), universe);
      ExpectTrailingBitsZero(bm);
      EXPECT_EQ(bm.ToTids(), tids);
      for (TransactionId tid : tids) EXPECT_TRUE(bm.Test(tid));
    }
  }
}

// Both ANDs of a and b against the merge oracle: the non-empty result, the
// decoded tids and the trailing-word invariant.
void ExpectAndsMatch(const Tids& a, const Tids& b, size_t universe) {
  const Tids expected = OracleIntersect(a, b);
  const TidBitmap abm = FromTids(a, universe);
  const TidBitmap bbm = FromTids(b, universe);
  TidBitmap out;
  EXPECT_EQ(BitmapAnd(abm, bbm, &out), !expected.empty()) << universe;
  EXPECT_EQ(out.ToTids(), expected) << universe;
  ExpectTrailingBitsZero(out);
  EXPECT_EQ(BitmapAnd(bbm, abm, &out), !expected.empty()) << universe;
  EXPECT_EQ(out.ToTids(), expected) << universe;  // commutes
  TidBitmap acc = abm;
  EXPECT_EQ(BitmapAndInto(&acc, bbm), !expected.empty()) << universe;
  EXPECT_EQ(acc.ToTids(), expected) << universe;
  ExpectTrailingBitsZero(acc);
}

TEST_P(BitmapKernelPropertyTest, AndKernelsMatchSetIntersection) {
  maras::Rng rng(GetParam() ^ 0x5117);
  for (size_t universe : {64u, 65u, 200u, 1024u, 4099u}) {
    for (double da : {0.0, 0.02, 0.3, 0.95}) {
      for (double db : {0.0, 0.02, 0.3, 0.95}) {
        ExpectAndsMatch(RandomTids(&rng, universe, da),
                        RandomTids(&rng, universe, db), universe);
      }
    }
  }
}

TEST_P(BitmapKernelPropertyTest, LongBitmapsCrossTheCacheBlockBoundary) {
  // Universes around 512 words (32,768 tids) and past 1,024 words: long
  // operands with and without a partial trailing word. The sparse case
  // shares at most the last tid.
  maras::Rng rng(GetParam() ^ 0xB10C);
  const size_t long_bits = 512 * kBitmapWordBits;
  for (size_t universe : {long_bits - 1, long_bits, long_bits + 1,
                          2 * long_bits + 77}) {
    ExpectAndsMatch(RandomTids(&rng, universe, 0.5),
                    RandomTids(&rng, universe, 0.5), universe);
    ExpectAndsMatch(RandomTids(&rng, universe, 0.0005),
                    {static_cast<TransactionId>(universe - 1)}, universe);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapKernelPropertyTest,
                         ::testing::Values(1, 77, 4242, 987654));

}  // namespace
}  // namespace maras::mining
