#include "mining/profile.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace maras::mining {
namespace {

TEST(ProfileTest, EmptyDatabase) {
  TransactionDatabase db;
  DatabaseProfile profile = ProfileDatabase(db);
  EXPECT_EQ(profile.transactions, 0u);
  EXPECT_EQ(profile.distinct_items, 0u);
  EXPECT_DOUBLE_EQ(profile.density, 0.0);
}

TEST(ProfileTest, HandComputed) {
  TransactionDatabase db;
  db.Add({1, 2, 3});
  db.Add({1, 2});
  db.Add({1});
  DatabaseProfile profile = ProfileDatabase(db);
  EXPECT_EQ(profile.transactions, 3u);
  EXPECT_EQ(profile.distinct_items, 3u);
  EXPECT_EQ(profile.total_item_occurrences, 6u);
  EXPECT_NEAR(profile.mean_transaction_length, 2.0, 1e-12);
  EXPECT_EQ(profile.max_transaction_length, 3u);
  EXPECT_NEAR(profile.density, 6.0 / 9.0, 1e-12);
  EXPECT_NEAR(profile.top_item_frequency, 1.0, 1e-12);  // item 1 everywhere
}

TEST(ProfileTest, ZipfSkewShowsInHeadShare) {
  maras::Rng rng(3);
  ZipfTable zipf(400, 1.2);
  TransactionDatabase zipf_db, uniform_db;
  for (int t = 0; t < 2000; ++t) {
    Itemset a, b;
    for (int i = 0; i < 4; ++i) {
      a.push_back(static_cast<ItemId>(zipf.Sample(&rng)));
      b.push_back(static_cast<ItemId>(rng.Uniform(400)));
    }
    zipf_db.Add(std::move(a));
    uniform_db.Add(std::move(b));
  }
  DatabaseProfile zipf_profile = ProfileDatabase(zipf_db);
  DatabaseProfile uniform_profile = ProfileDatabase(uniform_db);
  EXPECT_GT(zipf_profile.top_percentile_occurrence_share,
            3.0 * uniform_profile.top_percentile_occurrence_share);
  EXPECT_GT(zipf_profile.top_item_frequency,
            uniform_profile.top_item_frequency);
}

}  // namespace
}  // namespace maras::mining
