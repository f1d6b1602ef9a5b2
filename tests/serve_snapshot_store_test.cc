// SnapshotStore publication/fallback tests. Three ctest populations:
//   SnapshotStoreTest.*            — spec behavior, default pass
//   SnapshotStoreChaosTest.*       — deterministic fault injection
//                                    (kill-mid-publish, torn/corrupt
//                                    generations), chaos-smoke label
//   SnapshotStoreConcurrencyTest.* — readers racing publishes, run under
//                                    tsan via the tsan-mining preset

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "faers/corruptor.h"
#include "tests/oracles/crash_harness.h"
#include "serve/query_engine.h"
#include "serve/snapshot_store.h"
#include "serve_test_util.h"
#include "util/delimited.h"

namespace maras::serve {
namespace {

using ::maras::test::InputsOf;
using ::maras::test::MakeServeFixture;
using ::maras::test::ServeFixture;

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/snapstore_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string GenPath(const std::string& dir, uint64_t generation) {
  return dir + "/" + SnapshotStore::GenerationFileName(generation);
}

SnapshotStore::Options OptionsFor(const std::string& dir) {
  SnapshotStore::Options options;
  options.dir = dir;
  return options;
}

TEST(SnapshotStoreTest, PublishThenAcquire) {
  const std::string dir = FreshDir("roundtrip");
  const ServeFixture fixture = MakeServeFixture();
  SnapshotStore store(OptionsFor(dir));
  ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());
  EXPECT_EQ(store.current_generation(), 1u);
  auto snapshot = store.Acquire();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ((*snapshot)->counts().signals, fixture.ranked.size());
  EXPECT_TRUE(store.diagnostics().empty());
}

TEST(SnapshotStoreTest, PublishCreatesMissingDirectory) {
  const std::string dir = FreshDir("mkdir") + "/nested/store";
  ASSERT_FALSE(std::filesystem::exists(dir));
  const ServeFixture fixture = MakeServeFixture();
  SnapshotStore store(OptionsFor(dir));
  ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());
  auto snapshot = store.Acquire();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ((*snapshot)->counts().signals, fixture.ranked.size());
}

TEST(SnapshotStoreTest, EmptyDirectoryIsNotFound) {
  SnapshotStore store(OptionsFor(FreshDir("empty")));
  EXPECT_TRUE(store.Acquire().status().IsNotFound());
}

TEST(SnapshotStoreTest, SecondPublishSwapsWhileOldReadersKeepTheirs) {
  const std::string dir = FreshDir("swap");
  const ServeFixture small = MakeServeFixture();
  const ServeFixture big = MakeServeFixture(/*extended=*/true);
  ASSERT_NE(small.ranked.size(), big.ranked.size());

  SnapshotStore store(OptionsFor(dir));
  ASSERT_TRUE(store.Publish(InputsOf(small)).ok());
  auto old_reader = store.Acquire();
  ASSERT_TRUE(old_reader.ok());

  ASSERT_TRUE(store.Publish(InputsOf(big)).ok());
  EXPECT_EQ(store.current_generation(), 2u);
  auto new_reader = store.Acquire();
  ASSERT_TRUE(new_reader.ok());
  EXPECT_EQ((*new_reader)->counts().signals, big.ranked.size());
  // The refcounted old generation is still fully usable.
  EXPECT_EQ((*old_reader)->counts().signals, small.ranked.size());
  auto ranked = (*old_reader)->Materialize(0);
  EXPECT_TRUE(ranked.ok());
}

TEST(SnapshotStoreTest, StrayTmpFilesAreNeverCandidates) {
  const std::string dir = FreshDir("straytmp");
  const ServeFixture fixture = MakeServeFixture();
  SnapshotStore store(OptionsFor(dir));
  ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());
  // A crash inside the atomic-write helper leaves a *.tmp — precisely what
  // rename-based publication protects against. It must be invisible.
  ASSERT_TRUE(
      maras::AtomicWriteStringToFile(GenPath(dir, 2) + ".tmp", "garbage").ok());
  SnapshotStore fresh(OptionsFor(dir));
  auto snapshot = fresh.Acquire();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(fresh.current_generation(), 1u);
}

TEST(SnapshotStoreTest, DanglingCurrentFallsBackToScan) {
  const std::string dir = FreshDir("dangling");
  const ServeFixture fixture = MakeServeFixture();
  SnapshotStore store(OptionsFor(dir));
  ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());
  ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());
  // CURRENT names generation 3, which does not exist.
  ASSERT_TRUE(maras::AtomicWriteStringToFile(
                  dir + "/CURRENT", SnapshotStore::GenerationFileName(3))
                  .ok());
  SnapshotStore fresh(OptionsFor(dir));
  auto snapshot = fresh.Acquire();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(fresh.current_generation(), 2u);
  EXPECT_FALSE(fresh.diagnostics().empty());
  // Nothing existed to quarantine.
  EXPECT_FALSE(std::filesystem::exists(GenPath(dir, 3) + ".quarantined"));
}

TEST(SnapshotStoreChaosTest, CorruptLastGenerationFallsBackAndQuarantines) {
  const std::string dir = FreshDir("fallback");
  const ServeFixture fixture = MakeServeFixture();
  SnapshotStore store(OptionsFor(dir));
  ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());
  ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());

  // Flip one byte in the middle of the committed generation 2.
  auto content = maras::ReadFileToString(GenPath(dir, 2));
  ASSERT_TRUE(content.ok());
  std::string damaged = *content;
  damaged[damaged.size() / 2] =
      static_cast<char>(damaged[damaged.size() / 2] ^ 0x40);
  ASSERT_TRUE(
      maras::AtomicWriteStringToFile(GenPath(dir, 2), damaged).ok());

  SnapshotStore fresh(OptionsFor(dir));
  auto snapshot = fresh.Acquire();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(fresh.current_generation(), 1u);
  EXPECT_EQ((*snapshot)->counts().signals, fixture.ranked.size());
  // Diagnosis names the rejected generation; the bad file is quarantined.
  ASSERT_FALSE(fresh.diagnostics().empty());
  EXPECT_NE(fresh.diagnostics()[0].find("generation 2"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(GenPath(dir, 2)));
  EXPECT_TRUE(std::filesystem::exists(GenPath(dir, 2) + ".quarantined"));
}

TEST(SnapshotStoreChaosTest, TruncatedLastGenerationAtEveryStride) {
  const ServeFixture fixture = MakeServeFixture();
  auto full = EncodeSignalSnapshot(InputsOf(fixture));
  ASSERT_TRUE(full.ok());
  for (size_t cut = 0; cut < full->size(); cut += 97) {
    const std::string dir =
        FreshDir("torn" + std::to_string(cut));
    SnapshotStore store(OptionsFor(dir));
    ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());
    ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());
    ASSERT_TRUE(faers::TruncateFileAt(GenPath(dir, 2), cut).ok());
    SnapshotStore fresh(OptionsFor(dir));
    auto snapshot = fresh.Acquire();
    ASSERT_TRUE(snapshot.ok()) << "cut at " << cut << ": "
                               << snapshot.status().ToString();
    EXPECT_EQ(fresh.current_generation(), 1u) << "cut at " << cut;
  }
}

TEST(SnapshotStoreChaosTest, TornLastGenerationMidRecord) {
  const std::string dir = FreshDir("tearmid");
  const ServeFixture fixture = MakeServeFixture();
  SnapshotStore store(OptionsFor(dir));
  ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());
  ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());
  auto content = maras::ReadFileToString(GenPath(dir, 2));
  ASSERT_TRUE(content.ok());
  // TearFileMidRecord picks a seeded cut strictly inside a "row" (for a
  // binary image: between two 0x0a bytes). Whether the image has enough
  // newline bytes to tear is deterministic for a fixed corpus; fall back to
  // a plain truncation when it does not.
  auto torn = faers::TearFileMidRecord(*content, /*seed=*/11);
  if (torn.ok()) {
    ASSERT_TRUE(
        maras::AtomicWriteStringToFile(GenPath(dir, 2), torn->content).ok());
  } else {
    ASSERT_TRUE(
        faers::TruncateFileAt(GenPath(dir, 2), content->size() / 3).ok());
  }
  SnapshotStore fresh(OptionsFor(dir));
  auto snapshot = fresh.Acquire();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(fresh.current_generation(), 1u);
}

TEST(SnapshotStoreChaosTest, AllGenerationsBadIsNotFoundWithDiagnosis) {
  const std::string dir = FreshDir("allbad");
  const ServeFixture fixture = MakeServeFixture();
  SnapshotStore store(OptionsFor(dir));
  ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());
  ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());
  ASSERT_TRUE(faers::TruncateFileAt(GenPath(dir, 1), 10).ok());
  ASSERT_TRUE(faers::TruncateFileAt(GenPath(dir, 2), 40).ok());
  SnapshotStore fresh(OptionsFor(dir));
  EXPECT_TRUE(fresh.Acquire().status().IsNotFound());
  EXPECT_GE(fresh.diagnostics().size(), 2u);
  EXPECT_TRUE(std::filesystem::exists(GenPath(dir, 1) + ".quarantined"));
  EXPECT_TRUE(std::filesystem::exists(GenPath(dir, 2) + ".quarantined"));
}

TEST(SnapshotStoreChaosTest, KillAtEveryPublishStageLeavesAServableStore) {
  const ServeFixture fixture = MakeServeFixture();
  const struct {
    std::string_view stage;
    uint64_t expected_generation;  // what a fresh store must serve
    bool second_file_expected;     // generation-2 file present on disk
  } kCases[] = {
      {"publish.pre-snapshot-write", 1, false},
      {"publish.post-snapshot-write", 1, true},
      {"publish.pre-current-write", 1, true},
      // After CURRENT commits, the crash happens post-publication.
      {"publish.post-current-write", 2, true},
  };
  for (const auto& kase : kCases) {
    const std::string dir =
        FreshDir("kill_" + std::string(kase.stage.substr(8)));
    SnapshotStore::Options options = OptionsFor(dir);
    SnapshotStore setup(options);
    ASSERT_TRUE(setup.Publish(InputsOf(fixture)).ok());

    options.stage_hook = [&kase](std::string_view stage) {
      return stage != kase.stage;
    };
    SnapshotStore killer(options);
    EXPECT_TRUE(killer.Publish(InputsOf(fixture)).IsCancelled())
        << kase.stage;

    EXPECT_EQ(std::filesystem::exists(GenPath(dir, 2)),
              kase.second_file_expected)
        << kase.stage;
    // A process starting over the directory the "crash" left behind must
    // come up serving the committed generation.
    SnapshotStore recovered(OptionsFor(dir));
    auto snapshot = recovered.Acquire();
    ASSERT_TRUE(snapshot.ok())
        << kase.stage << ": " << snapshot.status().ToString();
    EXPECT_EQ(recovered.current_generation(), kase.expected_generation)
        << kase.stage;
    EXPECT_TRUE(recovered.diagnostics().empty()) << kase.stage;
  }
}

TEST(SnapshotStoreConcurrencyTest, ReadersRacePublishes) {
  const std::string dir = FreshDir("race");
  const ServeFixture small = MakeServeFixture();
  const ServeFixture big = MakeServeFixture(/*extended=*/true);
  SnapshotStore store(OptionsFor(dir));
  ASSERT_TRUE(store.Publish(InputsOf(small)).ok());

  constexpr int kReaders = 4;
  constexpr int kPublishes = 6;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &stop, &failures] {
      while (!stop.load(std::memory_order_acquire)) {
        auto snapshot = store.Acquire();
        if (!snapshot.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto engine = QueryEngine::Create(*snapshot);
        if (!engine.ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (uint32_t s : engine->TopK(3)) {
          if (!engine->Materialize(s).ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (int p = 0; p < kPublishes; ++p) {
    const ServeFixture& fixture = (p % 2 == 0) ? big : small;
    ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.current_generation(), 1u + kPublishes);
}

// Regression for the generation-selection race publish_mu_ now closes: two
// publishers entering Publish at once could both list the same highest
// generation, both write snapshot-N+1, and one publish silently vanished
// under the other's overwrite. With the whole-publish lock, N concurrent
// publishers must all succeed, produce N distinct generation files, and
// leave the store serving generation N.
TEST(SnapshotStoreConcurrencyTest, ConcurrentPublishersGetDistinctGenerations) {
  const std::string dir = FreshDir("pubrace");
  const ServeFixture fixture = MakeServeFixture();
  SnapshotStore store(OptionsFor(dir));

  constexpr int kPublishers = 4;
  constexpr int kPerThread = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> publishers;
  publishers.reserve(kPublishers);
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&store, &fixture, &failures] {
      for (int i = 0; i < kPerThread; ++i) {
        if (!store.Publish(InputsOf(fixture)).ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : publishers) t.join();

  constexpr uint64_t kTotal = uint64_t{kPublishers} * kPerThread;
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.current_generation(), kTotal);
  // Every publish must have landed in its own generation file — a lost
  // publish shows up here as a gap.
  for (uint64_t g = 1; g <= kTotal; ++g) {
    EXPECT_TRUE(std::filesystem::exists(GenPath(dir, g))) << "generation " << g;
  }
}

// The status accessors (current_generation, diagnostics) read state that
// Publish/Refresh mutate; under the shared-mutex split they take the shared
// capability while a publisher holds the exclusive one. Racing them is what
// the tsan preset is for — unguarded reads of generation_ or current_ would
// light up here.
TEST(SnapshotStoreConcurrencyTest, StatusAccessorsRacePublishes) {
  const std::string dir = FreshDir("statusrace");
  const ServeFixture fixture = MakeServeFixture();
  SnapshotStore store(OptionsFor(dir));
  ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());

  constexpr int kPollers = 3;
  constexpr int kPublishes = 5;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> pollers;
  pollers.reserve(kPollers);
  for (int r = 0; r < kPollers; ++r) {
    pollers.emplace_back([&store, &stop, &failures] {
      uint64_t last_gen = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t gen = store.current_generation();
        if (gen < last_gen) failures.fetch_add(1);  // must be monotone
        last_gen = gen;
        // Diagnostics snapshot must be internally consistent (a torn read
        // of the vector would crash or trip TSan).
        const std::vector<std::string> diags = store.diagnostics();
        for (const std::string& d : diags) {
          if (d.empty()) failures.fetch_add(1);
        }
        if (!store.Acquire().ok()) failures.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kPublishes; ++p) {
    ASSERT_TRUE(store.Publish(InputsOf(fixture)).ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : pollers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.current_generation(), 1u + kPublishes);
}

}  // namespace
}  // namespace maras::serve
