#ifndef MARAS_TESTS_SERVE_TEST_UTIL_H_
#define MARAS_TESTS_SERVE_TEST_UTIL_H_

// Shared fixture for the serving-path tests: one analyzed corpus with its
// ranked signals, plus helpers to hand it to the snapshot writer and to
// re-stamp checksums on deliberately forged images.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "core/checkpoint.h"
#include "core/ranking.h"
#include "serve/snapshot_format.h"
#include "serve/snapshot_writer.h"
#include "test_util.h"

namespace maras::test {

struct ServeFixture {
  MiniCorpus corpus;
  std::vector<core::RankedMcac> ranked;
  core::RuleSpaceStats stats;
  std::vector<uint64_t> primary_ids;
};

// Analyzes AsthmaCorpus at low support so the snapshot carries a signal
// with real multi-level context. `extended` grows the corpus with a second
// interaction (ASPIRIN + WARFARIN ⇒ BLEEDING), so extended and plain
// fixtures differ in both item and signal counts — tests use the pair to
// tell generations apart.
inline ServeFixture MakeServeFixture(bool extended = false) {
  ServeFixture fixture;
  fixture.corpus = AsthmaCorpus();
  if (extended) {
    fixture.corpus.Add({{"ASPIRIN", "WARFARIN"}, {"BLEEDING"}}, 8);
    fixture.corpus.Add({{"WARFARIN"}, {"BLEEDING"}}, 3);
    fixture.corpus.Add({{"ASPIRIN"}, {"BLEEDING"}}, 2);
  }
  core::AnalyzerOptions options;
  options.mining.min_support = 2;
  core::MarasAnalyzer analyzer(options);
  auto result =
      analyzer.Analyze(fixture.corpus.items, fixture.corpus.db);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  fixture.stats = result->stats;
  fixture.ranked =
      core::RankMcacs(result->mcacs, core::RankingMethod::kExclusivenessLift,
                      options.exclusiveness);
  EXPECT_FALSE(fixture.ranked.empty());
  for (size_t i = 0; i < fixture.corpus.db.size(); ++i) {
    fixture.primary_ids.push_back(1000 + i);
  }
  return fixture;
}

// A corpus whose ranked signals form a covering chain in the concept
// lattice: D1+D2 ⇒ X sits one covering step below D1+D2+D3 ⇒ X (same ADR,
// maximal proper drug subset), so snapshots of this fixture carry non-empty
// lattice-navigation lists.
inline ServeFixture MakeLayeredServeFixture() {
  ServeFixture fixture;
  fixture.corpus.Add({{"D1", "D2", "D3"}, {"X"}}, 5);
  fixture.corpus.Add({{"D1", "D2"}, {"X"}}, 4);
  fixture.corpus.Add({{"D1"}, {"X"}}, 3);
  fixture.corpus.Add({{"D2"}, {"Y"}}, 6);
  fixture.corpus.Add({{"D3"}, {"Y"}}, 6);
  core::AnalyzerOptions options;
  options.mining.min_support = 2;
  core::MarasAnalyzer analyzer(options);
  auto result = analyzer.Analyze(fixture.corpus.items, fixture.corpus.db);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  fixture.stats = result->stats;
  fixture.ranked =
      core::RankMcacs(result->mcacs, core::RankingMethod::kExclusivenessLift,
                      options.exclusiveness);
  EXPECT_GE(fixture.ranked.size(), 2u);
  for (size_t i = 0; i < fixture.corpus.db.size(); ++i) {
    fixture.primary_ids.push_back(1000 + i);
  }
  return fixture;
}

inline serve::SnapshotInputs InputsOf(const ServeFixture& fixture) {
  serve::SnapshotInputs inputs;
  inputs.items = &fixture.corpus.items;
  inputs.signals = &fixture.ranked;
  inputs.stats = fixture.stats;
  inputs.db = &fixture.corpus.db;
  inputs.primary_ids = &fixture.primary_ids;
  return inputs;
}

inline void PutU32Le(std::string* bytes, size_t pos, uint32_t v) {
  std::memcpy(bytes->data() + pos, &v, sizeof(v));
}

inline void PutU64Le(std::string* bytes, size_t pos, uint64_t v) {
  std::memcpy(bytes->data() + pos, &v, sizeof(v));
}

inline uint32_t GetU32Le(const std::string& bytes, size_t pos) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  return v;
}

// Recomputes every per-section checksum and the header's table checksum
// from the (possibly mutated) image, so a test can forge *semantic* content
// and prove the reader rejects it on validation, not merely on checksums.
inline void RestampChecksums(std::string* bytes) {
  using serve::kFileHeaderBytes;
  using serve::kSectionEntryBytes;
  ASSERT_GE(bytes->size(),
            kFileHeaderBytes + serve::kSectionCount * kSectionEntryBytes);
  for (uint32_t i = 0; i < serve::kSectionCount; ++i) {
    const size_t entry = kFileHeaderBytes + size_t{i} * kSectionEntryBytes;
    const uint32_t offset = GetU32Le(*bytes, entry + 4);
    const uint32_t size = GetU32Le(*bytes, entry + 8);
    ASSERT_LE(uint64_t{offset} + size, bytes->size());
    PutU64Le(bytes, entry + 16,
             core::Fnv1a64(std::string_view(*bytes).substr(offset, size)));
  }
  PutU64Le(bytes, 16,
           core::Fnv1a64(std::string_view(*bytes).substr(
               kFileHeaderBytes,
               size_t{serve::kSectionCount} * kSectionEntryBytes)));
}

}  // namespace maras::test

#endif  // MARAS_TESTS_SERVE_TEST_UTIL_H_
