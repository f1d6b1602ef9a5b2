#include "core/export.h"

#include <gtest/gtest.h>

#include <string>

#include "core/analyzer.h"
#include "test_util.h"

namespace maras::core {
namespace {

using maras::test::AsthmaCorpus;
using maras::test::MiniCorpus;

// The member `key` of object `value`, or nullptr when absent.
const json::Value* Field(const json::Value& value, const std::string& key) {
  const json::Value::Object& object = value.as_object();
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

struct Fixture {
  MiniCorpus corpus = AsthmaCorpus();
  AnalysisResult analysis;
  std::vector<RankedMcac> ranked;

  Fixture() {
    AnalyzerOptions options;
    options.mining.min_support = 2;
    MarasAnalyzer analyzer(options);
    auto result = analyzer.Analyze(corpus.items, corpus.db);
    EXPECT_TRUE(result.ok());
    analysis = *std::move(result);
    ranked = RankMcacs(analysis.mcacs,
                       RankingMethod::kExclusivenessConfidence, {});
  }
};

TEST(ExportTest, SchemaFields) {
  Fixture f;
  KnowledgeBase kb = CuratedKnowledgeBase();
  json::Value doc = ExportRankedMcacs(f.ranked, f.corpus.items,
                                      f.analysis.stats, kb);
  ASSERT_TRUE(doc.is_object());
  const json::Value* stats = Field(doc, "stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_NE(Field(*stats, "total_rules"), nullptr);
  EXPECT_NE(Field(*stats, "mcac_count"), nullptr);
  const json::Value* clusters = Field(doc, "clusters");
  ASSERT_NE(clusters, nullptr);
  ASSERT_TRUE(clusters->is_array());
  ASSERT_FALSE(clusters->as_array().empty());

  const json::Value& first = clusters->as_array()[0];
  EXPECT_DOUBLE_EQ(Field(first, "rank")->as_number(), 1.0);
  EXPECT_NE(Field(first, "score"), nullptr);
  const json::Value* target = Field(first, "target");
  ASSERT_NE(target, nullptr);
  EXPECT_TRUE(Field(*target, "drugs")->is_array());
  EXPECT_TRUE(Field(*target, "adrs")->is_array());
  EXPECT_GE(Field(*target, "support")->as_number(), 2.0);
  EXPECT_NE(Field(first, "severity"), nullptr);
  EXPECT_NE(Field(first, "novelty"), nullptr);
  EXPECT_TRUE(Field(first, "context")->is_array());
}

TEST(ExportTest, RankOrderPreserved) {
  Fixture f;
  KnowledgeBase kb;
  json::Value doc = ExportRankedMcacs(f.ranked, f.corpus.items,
                                      f.analysis.stats, kb);
  const auto& clusters = Field(doc, "clusters")->as_array();
  for (size_t i = 0; i < clusters.size(); ++i) {
    EXPECT_DOUBLE_EQ(Field(clusters[i], "rank")->as_number(),
                     static_cast<double>(i + 1));
    EXPECT_DOUBLE_EQ(Field(clusters[i], "score")->as_number(),
                     f.ranked[i].score);
  }
}

TEST(ExportTest, MaxClustersCap) {
  Fixture f;
  KnowledgeBase kb;
  ExportOptions options;
  options.max_clusters = 1;
  json::Value doc = ExportRankedMcacs(f.ranked, f.corpus.items,
                                      f.analysis.stats, kb, options);
  EXPECT_EQ(Field(doc, "clusters")->as_array().size(), 1u);
}

TEST(ExportTest, OptionalSectionsToggle) {
  Fixture f;
  KnowledgeBase kb;
  ExportOptions options;
  options.include_severity = false;
  options.include_novelty = false;
  options.include_context = false;
  json::Value doc = ExportRankedMcacs(f.ranked, f.corpus.items,
                                      f.analysis.stats, kb, options);
  const json::Value& first = Field(doc, "clusters")->as_array()[0];
  EXPECT_EQ(Field(first, "severity"), nullptr);
  EXPECT_EQ(Field(first, "novelty"), nullptr);
  EXPECT_EQ(Field(first, "context"), nullptr);
}

TEST(ExportTest, ContextSizeMatchesMcac) {
  Fixture f;
  KnowledgeBase kb;
  json::Value doc = ExportRankedMcacs(f.ranked, f.corpus.items,
                                      f.analysis.stats, kb);
  const auto& clusters = Field(doc, "clusters")->as_array();
  for (size_t i = 0; i < clusters.size(); ++i) {
    EXPECT_EQ(Field(clusters[i], "context")->as_array().size(),
              f.ranked[i].mcac.ContextSize());
  }
}

TEST(ExportTest, JsonStringRoundTrips) {
  Fixture f;
  std::string text = ExportAnalysisToJson(
      f.analysis, f.corpus.items,
      RankingMethod::kExclusivenessConfidence, {});
  const json::Value doc = ExportRankedMcacs(
      f.ranked, f.corpus.items, f.analysis.stats, CuratedKnowledgeBase());
  EXPECT_EQ(text, json::Serialize(doc, /*pretty=*/true));
  ASSERT_EQ(Field(doc, "clusters")->as_array().size(), f.ranked.size());
  // Drug names survive as strings.
  const json::Value* target =
      Field(Field(doc, "clusters")->as_array()[0], "target");
  ASSERT_NE(target, nullptr);
  const auto& drugs = Field(*target, "drugs")->as_array();
  ASSERT_FALSE(drugs.empty());
  EXPECT_NE(text.find("\"" + drugs[0].as_string() + "\""),
            std::string::npos);
}

TEST(ExportTest, EmptyRankingExportsEmptyArray) {
  MiniCorpus corpus;
  corpus.Add({{"A"}, {"X"}}, 3);
  KnowledgeBase kb;
  RuleSpaceStats stats;
  json::Value doc = ExportRankedMcacs({}, corpus.items, stats, kb);
  EXPECT_TRUE(Field(doc, "clusters")->as_array().empty());
}

}  // namespace
}  // namespace maras::core
