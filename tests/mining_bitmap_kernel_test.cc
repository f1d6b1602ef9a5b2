// Kernel-level differential tests for mining/bitmap.h. Every kernel —
// popcount, AND + popcount, AND3 + popcount, materializing and in-place
// AND, and the
// tid-list <-> bitmap conversions — is checked against a scalar oracle
// (std::set_intersection / a plain bit loop) over multi-seed random tid
// universes at several densities, plus the edge shapes the word-packed
// representation makes dangerous: exact word boundaries, all-zero and
// all-one bitmaps, and trailing partial words.
// The SIMD backends (AVX2/NEON) dispatch underneath the same entry points,
// so whichever one the host selects is the one being proven here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
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

Tids OracleIntersect(const Tids& a, const Tids& b) {
  Tids out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// The invariant every kernel relies on: bits at and beyond `universe` in
// the trailing partial word are zero.
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
  EXPECT_EQ(BitmapPopcount(a), 0u);
  EXPECT_EQ(AndPopcount(a, b), 0u);
  EXPECT_EQ(And3Popcount(a, b, a), 0u);
  TidBitmap out;
  EXPECT_EQ(BitmapAnd(a, b, &out), 0u);
  EXPECT_EQ(out.universe(), 0u);
  a.Fill();
  EXPECT_EQ(BitmapPopcount(a), 0u);
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
  EXPECT_EQ(BitmapPopcount(bm), probes.size());
  EXPECT_EQ(bm.ToTids(), probes);
  ExpectTrailingBitsZero(bm);
}

TEST(BitmapKernelTest, FillMasksTheTrailingPartialWord) {
  for (size_t universe : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 1000u}) {
    TidBitmap bm(universe);
    bm.Fill();
    EXPECT_EQ(BitmapPopcount(bm), universe) << universe;
    ExpectTrailingBitsZero(bm);
    Tids all = bm.ToTids();
    ASSERT_EQ(all.size(), universe) << universe;
    EXPECT_EQ(all.front(), 0u);
    EXPECT_EQ(all.back(), static_cast<TransactionId>(universe - 1));
  }
}

TEST(BitmapKernelTest, AllZeroAndAllOneOperands) {
  for (size_t universe : {64u, 65u, 320u}) {
    TidBitmap zero(universe);
    TidBitmap full(universe);
    full.Fill();
    EXPECT_EQ(AndPopcount(full, full), universe);
    EXPECT_EQ(AndPopcount(full, zero), 0u);
    EXPECT_EQ(AndPopcount(zero, zero), 0u);
    EXPECT_EQ(And3Popcount(full, full, full), universe);
    EXPECT_EQ(And3Popcount(full, full, zero), 0u);
    TidBitmap out;
    EXPECT_EQ(BitmapAnd(full, full, &out), universe);
    ExpectTrailingBitsZero(out);
    EXPECT_EQ(BitmapAnd(full, zero, &out), 0u);
    EXPECT_EQ(BitmapPopcount(out), 0u);
  }
}

TEST(BitmapKernelTest, ResetClearsAndResizes) {
  TidBitmap bm(100);
  bm.Fill();
  bm.Reset(40);
  EXPECT_EQ(bm.universe(), 40u);
  EXPECT_EQ(BitmapPopcount(bm), 0u);
  bm.Set(39);
  bm.Reset(100);
  EXPECT_EQ(BitmapPopcount(bm), 0u);
}

TEST(BitmapKernelTest, BackendNameIsStableAndKnown) {
  const std::string backend = BitmapKernelBackend();
  EXPECT_TRUE(backend == "avx2" || backend == "neon" || backend == "scalar")
      << backend;
  EXPECT_EQ(backend, BitmapKernelBackend());  // same choice for the process
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
      TidBitmap bm = TidBitmap::FromTids(tids, universe);
      EXPECT_EQ(bm.universe(), universe);
      ExpectTrailingBitsZero(bm);
      EXPECT_EQ(BitmapPopcount(bm), tids.size());
      EXPECT_EQ(bm.ToTids(), tids);
    }
  }
}

TEST_P(BitmapKernelPropertyTest, AndKernelsMatchSetIntersection) {
  maras::Rng rng(GetParam() ^ 0x5117);
  for (size_t universe : {64u, 65u, 200u, 1024u, 4099u}) {
    for (double da : {0.02, 0.3, 0.95}) {
      for (double db : {0.02, 0.3, 0.95}) {
        Tids a = RandomTids(&rng, universe, da);
        Tids b = RandomTids(&rng, universe, db);
        const Tids expected = OracleIntersect(a, b);
        TidBitmap abm = TidBitmap::FromTids(a, universe);
        TidBitmap bbm = TidBitmap::FromTids(b, universe);
        EXPECT_EQ(AndPopcount(abm, bbm), expected.size());
        EXPECT_EQ(AndPopcount(bbm, abm), expected.size());  // commutes
        TidBitmap out;
        EXPECT_EQ(BitmapAnd(abm, bbm, &out), expected.size());
        EXPECT_EQ(out.ToTids(), expected);
        ExpectTrailingBitsZero(out);
        TidBitmap acc = abm;
        EXPECT_EQ(BitmapAndInto(&acc, bbm), expected.size());
        EXPECT_EQ(acc.ToTids(), expected);
        ExpectTrailingBitsZero(acc);
      }
    }
  }
}

TEST_P(BitmapKernelPropertyTest, And3KernelMatchesTripleIntersection) {
  maras::Rng rng(GetParam() ^ 0x3333);
  for (size_t universe : {65u, 300u, 2048u}) {
    Tids a = RandomTids(&rng, universe, 0.5);
    Tids b = RandomTids(&rng, universe, 0.4);
    Tids c = RandomTids(&rng, universe, 0.3);
    const Tids expected = OracleIntersect(OracleIntersect(a, b), c);
    TidBitmap abm = TidBitmap::FromTids(a, universe);
    TidBitmap bbm = TidBitmap::FromTids(b, universe);
    TidBitmap cbm = TidBitmap::FromTids(c, universe);
    EXPECT_EQ(And3Popcount(abm, bbm, cbm), expected.size());
    EXPECT_EQ(And3Popcount(cbm, abm, bbm), expected.size());
  }
}

TEST_P(BitmapKernelPropertyTest, LongBitmapsCrossTheCacheBlockBoundary) {
  // kBitmapBlockWords words per block: universes straddling one and two
  // blocks exercise the blocked loop's inter-block accumulation.
  maras::Rng rng(GetParam() ^ 0xB10C);
  const size_t block_bits = kBitmapBlockWords * kBitmapWordBits;
  for (size_t universe : {block_bits - 1, block_bits, block_bits + 1,
                          2 * block_bits + 77}) {
    Tids a = RandomTids(&rng, universe, 0.5);
    Tids b = RandomTids(&rng, universe, 0.5);
    const Tids expected = OracleIntersect(a, b);
    TidBitmap abm = TidBitmap::FromTids(a, universe);
    TidBitmap bbm = TidBitmap::FromTids(b, universe);
    EXPECT_EQ(AndPopcount(abm, bbm), expected.size()) << universe;
    EXPECT_EQ(BitmapPopcount(abm), a.size()) << universe;
    TidBitmap out;
    EXPECT_EQ(BitmapAnd(abm, bbm, &out), expected.size()) << universe;
    EXPECT_EQ(out.ToTids(), expected) << universe;
    EXPECT_EQ(BitmapAndInto(&abm, bbm), expected.size()) << universe;
    EXPECT_EQ(abm.ToTids(), expected) << universe;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapKernelPropertyTest,
                         ::testing::Values(1, 77, 4242, 987654));

}  // namespace
}  // namespace maras::mining
