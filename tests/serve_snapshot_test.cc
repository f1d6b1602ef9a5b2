// Round-trip, relocatability and hostile-bytes tests for the snapshot
// writer/reader pair. The adversarial sections enforce the serving-path
// failure model: EVERY single-byte corruption, truncation and
// checksum-consistent semantic forgery must surface as a structured
// non-OK Status — never a crash, never a partially usable snapshot.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "mining/itemset.h"
#include "serve/snapshot_format.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"
#include "serve_test_util.h"

namespace maras::serve {
namespace {

using ::maras::test::InputsOf;
using ::maras::test::MakeLayeredServeFixture;
using ::maras::test::MakeServeFixture;
using ::maras::test::ReferenceSupportingReports;
using ::maras::test::RestampChecksums;
using ::maras::test::ServeFixture;

std::string EncodeOrDie(const ServeFixture& fixture) {
  auto bytes = EncodeSignalSnapshot(InputsOf(fixture));
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return *bytes;
}

TEST(SnapshotRoundTripTest, CountsAndStatsSurvive) {
  const ServeFixture fixture = MakeServeFixture();
  auto snapshot = SignalSnapshot::FromBytes(EncodeOrDie(fixture));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->counts().signals, fixture.ranked.size());
  EXPECT_EQ(snapshot->counts().items, fixture.corpus.items.size());
  EXPECT_EQ(snapshot->stats().total_rules, fixture.stats.total_rules);
  EXPECT_EQ(snapshot->stats().filtered_rules, fixture.stats.filtered_rules);
  EXPECT_EQ(snapshot->stats().closed_mixed, fixture.stats.closed_mixed);
  EXPECT_EQ(snapshot->stats().mcac_count, fixture.stats.mcac_count);
}

TEST(SnapshotRoundTripTest, MaterializeIsByteIdenticalToAnalyzerOutput) {
  const ServeFixture fixture = MakeServeFixture();
  auto snapshot = SignalSnapshot::FromBytes(EncodeOrDie(fixture));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  std::vector<core::RankedMcac> materialized;
  for (uint32_t s = 0; s < snapshot->counts().signals; ++s) {
    auto ranked = snapshot->Materialize(s);
    ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
    materialized.push_back(std::move(*ranked));
  }
  // The strongest equality available: the checkpoint codec serializes every
  // field (doubles as raw bits), so identical encodings mean identical
  // analyzer-side values.
  EXPECT_EQ(core::EncodeRankedMcacs(materialized),
            core::EncodeRankedMcacs(fixture.ranked));
}

TEST(SnapshotRoundTripTest, ReportIdsMatchSupportingReports) {
  const ServeFixture fixture = MakeServeFixture();
  auto snapshot = SignalSnapshot::FromBytes(EncodeOrDie(fixture));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  for (uint32_t s = 0; s < snapshot->counts().signals; ++s) {
    std::vector<uint64_t> got;
    ASSERT_TRUE(snapshot->ReportIds(s, &got).ok());
    const std::vector<uint64_t> want = ReferenceSupportingReports(
        fixture.corpus.db, fixture.primary_ids,
        fixture.ranked[s].mcac.target);
    EXPECT_EQ(got, want) << "signal " << s;
    EXPECT_FALSE(got.empty()) << "signal " << s;
  }
}

TEST(SnapshotRoundTripTest, DbPathEqualsPrecomputedReferenceLists) {
  // The writer derives every signal's reports from db + primary_ids in one
  // batched pass; handing it the reference lists instead must encode the
  // same bytes.
  for (const ServeFixture& fixture :
       {MakeServeFixture(), MakeServeFixture(/*extended=*/true),
        MakeLayeredServeFixture()}) {
    std::vector<std::vector<uint64_t>> report_ids;
    for (const core::RankedMcac& entry : fixture.ranked) {
      report_ids.push_back(ReferenceSupportingReports(
          fixture.corpus.db, fixture.primary_ids, entry.mcac.target));
    }
    SnapshotInputs precomputed = InputsOf(fixture);
    precomputed.db = nullptr;
    precomputed.primary_ids = nullptr;
    precomputed.report_ids = &report_ids;
    auto bytes = EncodeSignalSnapshot(precomputed);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ(*bytes, EncodeOrDie(fixture));
  }
}

TEST(SnapshotRoundTripTest, DecodeReEncodeIsByteIdentical) {
  const ServeFixture fixture = MakeServeFixture();
  const std::string bytes = EncodeOrDie(fixture);
  auto snapshot = SignalSnapshot::FromBytes(bytes);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto rebuilt = ReconstructInputs(*snapshot);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  SnapshotInputs inputs;
  inputs.items = &rebuilt->items;
  inputs.signals = &rebuilt->signals;
  inputs.stats = rebuilt->stats;
  inputs.report_ids = &rebuilt->report_ids;
  auto re_encoded = EncodeSignalSnapshot(inputs);
  ASSERT_TRUE(re_encoded.ok()) << re_encoded.status().ToString();
  EXPECT_EQ(*re_encoded, bytes);
}

TEST(SnapshotRoundTripTest, ImageIsRelocatable) {
  const ServeFixture fixture = MakeServeFixture();
  const std::string bytes = EncodeOrDie(fixture);
  // Two independent copies at different addresses must answer identically —
  // nothing in the image may depend on where it is loaded.
  const std::string copy_a = bytes;
  const std::string copy_b = bytes;
  auto snap_a = SignalSnapshot::FromView(copy_a);
  auto snap_b = SignalSnapshot::FromView(copy_b);
  ASSERT_TRUE(snap_a.ok());
  ASSERT_TRUE(snap_b.ok());
  for (uint32_t s = 0; s < snap_a->counts().signals; ++s) {
    auto a = snap_a->Materialize(s);
    auto b = snap_b->Materialize(s);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(core::EncodeRankedMcacs({*a}), core::EncodeRankedMcacs({*b}));
  }
}

TEST(SnapshotWriterTest, RejectsInconsistentInputs) {
  const ServeFixture fixture = MakeServeFixture();
  SnapshotInputs inputs;  // no items / signals at all
  EXPECT_TRUE(EncodeSignalSnapshot(inputs).status().IsInvalidArgument());

  inputs = InputsOf(fixture);
  inputs.primary_ids = nullptr;  // db without ids: no report source
  EXPECT_TRUE(EncodeSignalSnapshot(inputs).status().IsInvalidArgument());

  inputs = InputsOf(fixture);
  std::vector<std::vector<uint64_t>> precomputed(fixture.ranked.size());
  inputs.report_ids = &precomputed;  // both sources at once: ambiguous
  EXPECT_TRUE(EncodeSignalSnapshot(inputs).status().IsInvalidArgument());

  inputs = InputsOf(fixture);
  inputs.db = nullptr;
  inputs.primary_ids = nullptr;
  precomputed.pop_back();  // wrong per-signal list count
  inputs.report_ids = &precomputed;
  EXPECT_TRUE(EncodeSignalSnapshot(inputs).status().IsInvalidArgument());
}

TEST(SnapshotHostileBytesTest, EmptyAndTinyImagesAreRejected) {
  EXPECT_FALSE(SignalSnapshot::FromView("").ok());
  EXPECT_FALSE(SignalSnapshot::FromView("MSNP").ok());
  EXPECT_FALSE(SignalSnapshot::FromView(std::string(23, '\0')).ok());
}

TEST(SnapshotHostileBytesTest, EveryTruncationIsRejected) {
  const std::string bytes = EncodeOrDie(MakeServeFixture());
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto snapshot = SignalSnapshot::FromView(
        std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(snapshot.ok()) << "truncation to " << len << " accepted";
  }
}

TEST(SnapshotHostileBytesTest, EverySingleByteFlipIsRejected) {
  const std::string bytes = EncodeOrDie(MakeServeFixture());
  std::string mutant = bytes;
  for (size_t i = 0; i < bytes.size(); ++i) {
    mutant[i] = static_cast<char>(mutant[i] ^ 0x5a);
    auto snapshot = SignalSnapshot::FromView(mutant);
    EXPECT_FALSE(snapshot.ok()) << "flip at byte " << i << " accepted";
    mutant[i] = bytes[i];
  }
}

TEST(SnapshotHostileBytesTest, TrailingBytesAreRejected) {
  std::string bytes = EncodeOrDie(MakeServeFixture());
  bytes.push_back('\0');
  EXPECT_FALSE(SignalSnapshot::FromView(bytes).ok());
}

// Semantic forgeries: mutate content, then re-stamp every checksum so the
// framing layer is perfectly happy — rejection must come from canonical
// validation.
class SnapshotForgeryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = MakeServeFixture();
    bytes_ = EncodeOrDie(fixture_);
  }

  // Offset of section `id`'s payload in the image.
  size_t SectionOffset(SectionId id) const {
    const size_t entry = kFileHeaderBytes +
                         (static_cast<size_t>(id) - 1) * kSectionEntryBytes;
    return maras::test::GetU32Le(bytes_, entry + 4);
  }

  void ExpectForgedRejected(const std::string& what) {
    RestampChecksums(&bytes_);
    auto snapshot = SignalSnapshot::FromView(bytes_);
    EXPECT_FALSE(snapshot.ok()) << what << " accepted";
    if (!snapshot.ok()) {
      EXPECT_TRUE(snapshot.status().IsCorruption())
          << what << ": " << snapshot.status().ToString();
    }
  }

  ServeFixture fixture_;
  std::string bytes_;
};

TEST_F(SnapshotForgeryTest, ForgedItemNameOffset) {
  // Break the canonical tight packing of names: point item 0 one byte in.
  const size_t items = SectionOffset(SectionId::kItems);
  bytes_[items + kItemNameOffset] =
      static_cast<char>(bytes_[items + kItemNameOffset] + 1);
  ExpectForgedRejected("forged item name offset");
}

TEST_F(SnapshotForgeryTest, ForgedItemDomain) {
  const size_t items = SectionOffset(SectionId::kItems);
  bytes_[items + kItemDomain] = 7;
  ExpectForgedRejected("forged item domain");
}

TEST_F(SnapshotForgeryTest, ForgedSignalTargetRule) {
  // Point signal 0 at a context rule instead of its own target — breaks the
  // canonical rule ordering even though the index is in range.
  const size_t signals = SectionOffset(SectionId::kSignals);
  bytes_[signals + kSignalTargetRule] =
      static_cast<char>(bytes_[signals + kSignalTargetRule] + 1);
  ExpectForgedRejected("forged signal target rule");
}

TEST_F(SnapshotForgeryTest, ForgedPostingEntry) {
  ASSERT_GT(maras::test::GetU32Le(
                bytes_, SectionOffset(SectionId::kMeta) + kMetaPostingCount),
            0u);
  const size_t pool = SectionOffset(SectionId::kPostingPool);
  bytes_[pool] = static_cast<char>(bytes_[pool] + 1);
  ExpectForgedRejected("forged posting entry");
}

TEST_F(SnapshotForgeryTest, ForgedMetaCount) {
  // Claim one signal fewer than the section holds; geometry must object.
  const size_t meta = SectionOffset(SectionId::kMeta);
  const uint32_t signals = maras::test::GetU32Le(bytes_, meta);
  ASSERT_GT(signals, 0u);
  bytes_[meta] = static_cast<char>(signals - 1);
  ExpectForgedRejected("forged meta signal count");
}

TEST_F(SnapshotForgeryTest, ForgedReservedField) {
  const size_t signals = SectionOffset(SectionId::kSignals);
  bytes_[signals + kSignalReportCount + 4] = 1;
  ExpectForgedRejected("forged signal reserved field");
}

// Brute-force covering relation over the ranked targets: t generalizes s
// iff same ADR set, drugs(t) ⊊ drugs(s), and no third signal sits strictly
// between.
std::vector<std::vector<uint32_t>> BruteForceGeneralizations(
    const std::vector<core::RankedMcac>& ranked) {
  const auto proper_subset = [](const mining::Itemset& a,
                                const mining::Itemset& b) {
    return a.size() < b.size() && mining::IsSubset(a, b);
  };
  std::vector<std::vector<uint32_t>> gen(ranked.size());
  for (uint32_t s = 0; s < ranked.size(); ++s) {
    const core::DrugAdrRule& st = ranked[s].mcac.target;
    for (uint32_t t = 0; t < ranked.size(); ++t) {
      const core::DrugAdrRule& tt = ranked[t].mcac.target;
      if (t == s || tt.adrs != st.adrs || !proper_subset(tt.drugs, st.drugs)) {
        continue;
      }
      bool maximal = true;
      for (uint32_t u = 0; u < ranked.size() && maximal; ++u) {
        const core::DrugAdrRule& ut = ranked[u].mcac.target;
        if (u == t || u == s || ut.adrs != st.adrs) continue;
        if (proper_subset(tt.drugs, ut.drugs) &&
            proper_subset(ut.drugs, st.drugs)) {
          maximal = false;
        }
      }
      if (maximal) gen[s].push_back(t);
    }
  }
  return gen;
}

TEST(SnapshotLatticeTest, NavigationMatchesBruteForceCoveringRelation) {
  const ServeFixture fixture = maras::test::MakeLayeredServeFixture();
  auto snapshot = SignalSnapshot::FromBytes(EncodeOrDie(fixture));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->counts().lattice_nav, snapshot->counts().signals);
  const std::vector<std::vector<uint32_t>> gen =
      BruteForceGeneralizations(fixture.ranked);
  std::vector<std::vector<uint32_t>> spec(fixture.ranked.size());
  size_t total = 0;
  for (uint32_t s = 0; s < gen.size(); ++s) {
    for (uint32_t t : gen[s]) spec[t].push_back(s);
    total += gen[s].size();
  }
  ASSERT_GT(total, 0u) << "fixture must yield at least one covering edge";
  EXPECT_EQ(snapshot->counts().lattice_edges, 2 * total);
  for (uint32_t s = 0; s < fixture.ranked.size(); ++s) {
    std::vector<uint32_t> got;
    ASSERT_TRUE(snapshot->Generalizations(s, &got).ok());
    EXPECT_EQ(got, gen[s]) << "generalizations of signal " << s;
    ASSERT_TRUE(snapshot->Specializations(s, &got).ok());
    EXPECT_EQ(got, spec[s]) << "specializations of signal " << s;
  }
}

class SnapshotLatticeForgeryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = maras::test::MakeLayeredServeFixture();
    bytes_ = EncodeOrDie(fixture_);
    auto snapshot = SignalSnapshot::FromBytes(bytes_);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    ASSERT_GT(snapshot->counts().lattice_edges, 0u);
  }

  size_t SectionOffset(SectionId id) const {
    const size_t entry = kFileHeaderBytes +
                         (static_cast<size_t>(id) - 1) * kSectionEntryBytes;
    return maras::test::GetU32Le(bytes_, entry + 4);
  }

  void ExpectForgedRejected(const std::string& what) {
    RestampChecksums(&bytes_);
    auto snapshot = SignalSnapshot::FromView(bytes_);
    EXPECT_FALSE(snapshot.ok()) << what << " accepted";
    if (!snapshot.ok()) {
      EXPECT_TRUE(snapshot.status().IsCorruption())
          << what << ": " << snapshot.status().ToString();
    }
  }

  ServeFixture fixture_;
  std::string bytes_;
};

TEST_F(SnapshotLatticeForgeryTest, ForgedEdgeEntry) {
  const size_t pool = SectionOffset(SectionId::kLatticeEdgePool);
  bytes_[pool] = static_cast<char>(bytes_[pool] + 1);
  ExpectForgedRejected("forged lattice edge entry");
}

TEST_F(SnapshotLatticeForgeryTest, ForgedNavListLength) {
  const size_t nav = SectionOffset(SectionId::kLatticeNav);
  bytes_[nav + kLatticeNavGenCount] =
      static_cast<char>(bytes_[nav + kLatticeNavGenCount] + 1);
  ExpectForgedRejected("forged lattice nav list length");
}

TEST_F(SnapshotLatticeForgeryTest, StrippedMetaLatticeCount) {
  // Claim "no lattice" while the sections still hold bytes; geometry must
  // object before any navigation is served.
  const size_t meta = SectionOffset(SectionId::kMeta);
  bytes_[meta + kMetaLatticeNavCount] = 0;
  ExpectForgedRejected("stripped meta lattice count");
}

TEST_F(SnapshotLatticeForgeryTest, PartialNavCoverage) {
  // A nav count strictly between 0 and the signal count is forged even if
  // the section geometry were patched to match.
  const size_t meta = SectionOffset(SectionId::kMeta);
  const uint32_t signals = maras::test::GetU32Le(bytes_, meta);
  ASSERT_GT(signals, 1u);
  bytes_[meta + kMetaLatticeNavCount] = static_cast<char>(signals - 1);
  ExpectForgedRejected("partial lattice nav coverage");
}

TEST_F(SnapshotLatticeForgeryTest, LatticeStrippedImageIsCorruption) {
  // The image of a writer that skipped lattice navigation: both meta
  // lattice counts zeroed and the nav and edge-pool sections emptied. Every
  // snapshot must navigate every signal, so this is forged, not a variant.
  const size_t meta = SectionOffset(SectionId::kMeta);
  ASSERT_GT(maras::test::GetU32Le(bytes_, meta + kMetaSignalCount), 0u);
  maras::test::PutU32Le(&bytes_, meta + kMetaLatticeNavCount, 0);
  maras::test::PutU32Le(&bytes_, meta + kMetaLatticeEdgeCount, 0);
  // The two lattice sections end the image: cut them off and point both
  // table entries, now empty, at the new end.
  const size_t end = SectionOffset(SectionId::kLatticeNav);
  bytes_.resize(end);
  for (SectionId id : {SectionId::kLatticeNav, SectionId::kLatticeEdgePool}) {
    const size_t entry = kFileHeaderBytes +
                         (static_cast<size_t>(id) - 1) * kSectionEntryBytes;
    maras::test::PutU32Le(&bytes_, entry + 4, static_cast<uint32_t>(end));
    maras::test::PutU32Le(&bytes_, entry + 8, 0);
  }
  ExpectForgedRejected("lattice-stripped image");
}

TEST_F(SnapshotLatticeForgeryTest, DuplicateTargetIsCorruption) {
  // A self-consistent image with one signal twice: the writer derives (and
  // the forger encodes) every list from the duplicated targets. Each signal
  // has its own target rule, so two equal targets are forged.
  ASSERT_FALSE(fixture_.ranked.empty());
  fixture_.ranked.push_back(fixture_.ranked.back());
  bytes_ = EncodeOrDie(fixture_);
  ExpectForgedRejected("duplicate signal target");
  auto snapshot = SignalSnapshot::FromView(bytes_);
  EXPECT_NE(snapshot.status().ToString().find("share one target"),
            std::string::npos)
      << snapshot.status().ToString();
}

TEST(SnapshotAccessorTest, HostileQueryIndicesAreInvalidArgument) {
  const ServeFixture fixture = MakeServeFixture();
  auto snapshot = SignalSnapshot::FromBytes(
      *EncodeSignalSnapshot(InputsOf(fixture)));
  ASSERT_TRUE(snapshot.ok());
  const SnapshotCounts& counts = snapshot->counts();
  std::string_view name;
  EXPECT_TRUE(snapshot->ItemName(counts.items, &name).IsInvalidArgument());
  SignalRecord signal;
  EXPECT_TRUE(snapshot->Signal(counts.signals, &signal).IsInvalidArgument());
  core::DrugAdrRule rule;
  EXPECT_TRUE(snapshot->Rule(counts.rules, &rule).IsInvalidArgument());
  std::vector<uint64_t> reports;
  EXPECT_TRUE(
      snapshot->ReportIds(counts.signals, &reports).IsInvalidArgument());
  EXPECT_FALSE(snapshot->Materialize(counts.signals).ok());
  std::vector<uint32_t> neighbors;
  EXPECT_TRUE(snapshot->Generalizations(counts.signals, &neighbors)
                  .IsInvalidArgument());
  EXPECT_TRUE(snapshot->Specializations(counts.signals, &neighbors)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace maras::serve
