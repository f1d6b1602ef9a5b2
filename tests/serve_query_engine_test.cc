// QueryEngine tests: every answer must be byte-identical to querying the
// in-memory analyzer output directly — top-k is the ranked prefix, postings
// equal a brute-force scan over the ranked targets, and drill-down returns
// exactly the reports whose transactions contain the signal's target.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "mining/itemset.h"
#include "serve/query_engine.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"
#include "serve_test_util.h"

namespace maras::serve {
namespace {

using ::maras::test::InputsOf;
using ::maras::test::MakeServeFixture;
using ::maras::test::ReferenceSupportingReports;
using ::maras::test::ServeFixture;

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = MakeServeFixture(/*extended=*/true);
    auto bytes = EncodeSignalSnapshot(InputsOf(fixture_));
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto snapshot = SignalSnapshot::FromBytes(std::move(*bytes));
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    auto engine = QueryEngine::Create(
        std::make_shared<const SignalSnapshot>(std::move(*snapshot)));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::make_unique<QueryEngine>(std::move(*engine));
  }

  // Brute force over the analyzer output: ranked signal indices whose
  // target mentions `name` on `side`.
  std::vector<uint32_t> ScanAnalyzer(const std::string& name,
                                     mining::ItemDomain side) const {
    std::vector<uint32_t> out;
    auto id = fixture_.corpus.items.Lookup(name);
    if (!id.ok()) return out;
    for (size_t s = 0; s < fixture_.ranked.size(); ++s) {
      const core::DrugAdrRule& target = fixture_.ranked[s].mcac.target;
      const mining::Itemset& set =
          side == mining::ItemDomain::kDrug ? target.drugs : target.adrs;
      if (mining::Contains(set, *id)) {
        out.push_back(static_cast<uint32_t>(s));
      }
    }
    return out;
  }

  ServeFixture fixture_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(QueryEngineTest, TopKIsTheRankedPrefix) {
  const uint32_t n = engine_->snapshot().counts().signals;
  ASSERT_GE(n, 2u);
  EXPECT_TRUE(engine_->TopK(0).empty());
  const std::vector<uint32_t> one = engine_->TopK(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
  const std::vector<uint32_t> all = engine_->TopK(n + 100);
  ASSERT_EQ(all.size(), n);
  for (uint32_t i = 0; i < n; ++i) EXPECT_EQ(all[i], i);
  // Rank order in the snapshot is the analyzer's rank order: scores
  // descending, and each entry materializes to the analyzer's value.
  for (uint32_t i = 0; i + 1 < n; ++i) {
    SignalRecord a, b;
    ASSERT_TRUE(engine_->snapshot().Signal(i, &a).ok());
    ASSERT_TRUE(engine_->snapshot().Signal(i + 1, &b).ok());
    EXPECT_GE(a.score, b.score);
  }
}

TEST_F(QueryEngineTest, AllAnswersByteIdenticalToAnalyzer) {
  std::vector<core::RankedMcac> materialized;
  for (uint32_t s : engine_->TopK(engine_->snapshot().counts().signals)) {
    auto ranked = engine_->Materialize(s);
    ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
    materialized.push_back(std::move(*ranked));
  }
  EXPECT_EQ(core::EncodeRankedMcacs(materialized),
            core::EncodeRankedMcacs(fixture_.ranked));
}

TEST_F(QueryEngineTest, SignalsForDrugMatchBruteForce) {
  for (const std::string name :
       {"XOLAIR", "SINGULAIR", "PREDNISONE", "ASPIRIN", "WARFARIN"}) {
    auto got = engine_->SignalsForDrug(name);
    ASSERT_TRUE(got.ok()) << name;
    EXPECT_EQ(*got, ScanAnalyzer(name, mining::ItemDomain::kDrug)) << name;
  }
  // Every signal is reachable through at least one of its target drugs.
  auto xolair = engine_->SignalsForDrug("XOLAIR");
  auto warfarin = engine_->SignalsForDrug("WARFARIN");
  ASSERT_TRUE(xolair.ok());
  ASSERT_TRUE(warfarin.ok());
  EXPECT_FALSE(xolair->empty());
  EXPECT_FALSE(warfarin->empty());
}

TEST_F(QueryEngineTest, SignalsForAdrMatchBruteForce) {
  for (const std::string name : {"ASTHMA", "BLEEDING", "RASH", "NAUSEA"}) {
    auto got = engine_->SignalsForAdr(name);
    ASSERT_TRUE(got.ok()) << name;
    EXPECT_EQ(*got, ScanAnalyzer(name, mining::ItemDomain::kAdr)) << name;
  }
}

TEST_F(QueryEngineTest, UnknownNameIsNotFound) {
  EXPECT_TRUE(engine_->SignalsForDrug("NO-SUCH-DRUG").status().IsNotFound());
  EXPECT_TRUE(engine_->SignalsForAdr("NO-SUCH-ADR").status().IsNotFound());
  EXPECT_TRUE(engine_->FindItem("").status().IsNotFound());
}

TEST_F(QueryEngineTest, WrongDomainNameHasNoPostings) {
  // ASTHMA is an ADR; asking for it as a drug is answerable (the item
  // exists) but matches nothing.
  auto got = engine_->SignalsForDrug("ASTHMA");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST_F(QueryEngineTest, DrillDownMatchesSupportingReports) {
  for (uint32_t s : engine_->TopK(engine_->snapshot().counts().signals)) {
    auto got = engine_->SupportingReportIds(s);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got,
              ReferenceSupportingReports(fixture_.corpus.db,
                                         fixture_.primary_ids,
                                         fixture_.ranked[s].mcac.target))
        << "signal " << s;
  }
}

TEST_F(QueryEngineTest, EngineOutlivesStoreSwaps) {
  // The engine pins its snapshot; dropping every other reference must not
  // invalidate the borrowed item names inside the index.
  auto bytes = EncodeSignalSnapshot(InputsOf(fixture_));
  ASSERT_TRUE(bytes.ok());
  std::unique_ptr<QueryEngine> engine;
  {
    auto snapshot = SignalSnapshot::FromBytes(std::move(*bytes));
    ASSERT_TRUE(snapshot.ok());
    auto created = QueryEngine::Create(
        std::make_shared<const SignalSnapshot>(std::move(*snapshot)));
    ASSERT_TRUE(created.ok());
    engine = std::make_unique<QueryEngine>(std::move(*created));
  }
  auto got = engine->SignalsForDrug("XOLAIR");
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->empty());
}

TEST(QueryEngineCreateTest, NullSnapshotIsInvalidArgument) {
  EXPECT_TRUE(QueryEngine::Create(nullptr).status().IsInvalidArgument());
}

TEST(QueryEngineLatticeTest, GeneralizeAndSpecializeWalkTheCoveringChain) {
  const ServeFixture fixture = maras::test::MakeLayeredServeFixture();
  auto bytes = EncodeSignalSnapshot(InputsOf(fixture));
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto snapshot = SignalSnapshot::FromBytes(std::move(*bytes));
  ASSERT_TRUE(snapshot.ok());
  auto engine = QueryEngine::Create(
      std::make_shared<const SignalSnapshot>(std::move(*snapshot)));
  ASSERT_TRUE(engine.ok());

  // Find the triple and pair signals by drug-set width.
  uint32_t triple = UINT32_MAX, pair = UINT32_MAX;
  for (uint32_t s = 0; s < fixture.ranked.size(); ++s) {
    const size_t width = fixture.ranked[s].mcac.target.drugs.size();
    if (width == 3) triple = s;
    if (width == 2) pair = s;
  }
  ASSERT_NE(triple, UINT32_MAX);
  ASSERT_NE(pair, UINT32_MAX);

  auto up = engine->Generalize(triple);
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(*up, std::vector<uint32_t>{pair});
  auto down = engine->Specialize(pair);
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(*down, std::vector<uint32_t>{triple});
  // Chain ends: nothing above the pair, nothing below the triple.
  auto top = engine->Generalize(pair);
  ASSERT_TRUE(top.ok());
  EXPECT_TRUE(top->empty());
  auto bottom = engine->Specialize(triple);
  ASSERT_TRUE(bottom.ok());
  EXPECT_TRUE(bottom->empty());
}

}  // namespace
}  // namespace maras::serve
