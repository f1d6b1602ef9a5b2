#include "viz/glyph.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/mcac.h"
#include "test_util.h"
#include "tests/oracles/mcac_enumeration.h"
#include "tests/oracles/rules_database.h"

namespace maras::viz {
namespace {

using maras::test::AsthmaCorpus;
using maras::test::MiniCorpus;

GlyphSpec SampleSpec() {
  GlyphSpec spec;
  spec.target_value = 0.9;
  spec.levels = {{0.4, 0.2, 0.1}, {0.3, 0.25, 0.05}};
  spec.title = "sample cluster";
  return spec;
}

TEST(AnnularSectorPathTest, StartsAtOuterArcAndCloses) {
  std::string d = AnnularSectorPath(100, 100, 40, 80, 0.0, 1.0);
  EXPECT_EQ(d.substr(0, 2), "M ");
  EXPECT_NE(d.find(" A "), std::string::npos);
  EXPECT_NE(d.find(" L "), std::string::npos);
  EXPECT_EQ(d.substr(d.size() - 1), "Z");
}

TEST(AnnularSectorPathTest, TwelveOClockStart) {
  // Angle 0 = 12 o'clock: the first point is straight above the center.
  std::string d = AnnularSectorPath(100, 100, 40, 80, 0.0, 0.5);
  EXPECT_EQ(d.substr(0, std::string("M 100.00 20.00").size()),
            "M 100.00 20.00");
}

TEST(AnnularSectorPathTest, LargeArcFlagSetPastPi) {
  std::string small = AnnularSectorPath(0, 0, 10, 20, 0.0, 1.0);
  std::string large = AnnularSectorPath(0, 0, 10, 20, 0.0, 4.0);
  EXPECT_NE(small.find(" 0 1 "), std::string::npos);  // large-arc 0, sweep 1
  EXPECT_NE(large.find(" 1 1 "), std::string::npos);
}

TEST(GlyphRendererTest, DrawsOneSectorPerContextRulePlusCircle) {
  GlyphSpec spec = SampleSpec();
  ContextualGlyphRenderer renderer;
  SvgDocument doc = renderer.Render(spec);
  std::string svg = doc.Render();
  size_t paths = 0, pos = 0;
  while ((pos = svg.find("<path", pos)) != std::string::npos) {
    ++paths;
    ++pos;
  }
  EXPECT_EQ(paths, 6u);  // 3 + 3 context rules
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  EXPECT_NE(svg.find("sample cluster"), std::string::npos);
}

TEST(GlyphRendererTest, InnerCircleRadiusEncodesTarget) {
  ContextualGlyphRenderer renderer;
  GlyphSpec big = SampleSpec();
  big.target_value = 1.0;
  GlyphSpec small = SampleSpec();
  small.target_value = 0.0;
  std::string svg_big = renderer.Render(big).Render();
  std::string svg_small = renderer.Render(small).Render();
  const auto& g = renderer.geometry();
  char expected_big[64], expected_small[64];
  std::snprintf(expected_big, sizeof(expected_big), "r=\"%.2f\"",
                g.radius_inner_max);
  std::snprintf(expected_small, sizeof(expected_small), "r=\"%.2f\"",
                g.radius_inner_min);
  EXPECT_NE(svg_big.find(expected_big), std::string::npos);
  EXPECT_NE(svg_small.find(expected_small), std::string::npos);
}

TEST(GlyphRendererTest, ValuesClampedToUnitRange) {
  GlyphSpec spec;
  spec.target_value = 7.5;         // nonsense input
  spec.levels = {{-3.0, 0.5}};
  ContextualGlyphRenderer renderer;
  // Must not crash; inner radius capped at the configured max.
  std::string svg = renderer.Render(spec).Render();
  EXPECT_NE(svg.find("<circle"), std::string::npos);
}

TEST(GlyphRendererTest, EmptyContextStillDrawsTargetCircle) {
  GlyphSpec spec;
  spec.target_value = 0.6;
  ContextualGlyphRenderer renderer;
  std::string svg = renderer.Render(spec).Render();
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  EXPECT_EQ(svg.find("<path"), std::string::npos);
}

TEST(GlyphRendererTest, ZoomViewListsSectors) {
  GlyphSpec spec = SampleSpec();
  spec.sector_labels = {"[A]", "[B]", "[C]", "[A] [B]", "[A] [C]", "[B] [C]"};
  ContextualGlyphRenderer renderer;
  std::string svg = renderer.RenderZoom(spec).Render();
  for (const auto& label : spec.sector_labels) {
    EXPECT_NE(svg.find("[A]"), std::string::npos) << label;
  }
  EXPECT_NE(svg.find("target confidence = 0.900"), std::string::npos);
  EXPECT_NE(svg.find("conf = 0.400"), std::string::npos);
}

TEST(GlyphSpecFromMcacTest, ExtractsConfidencesAndLabels) {
  MiniCorpus corpus = AsthmaCorpus();
  mining::Itemset whole = mining::Union(
      corpus.Drugs({"XOLAIR", "SINGULAIR", "PREDNISONE"}),
      corpus.Adrs({"ASTHMA"}));
  auto target = core::BuildRule(whole, corpus.items, corpus.db);
  ASSERT_TRUE(target.ok());
  auto mcac = core::EnumerateMcac(*target, corpus.db);
  ASSERT_TRUE(mcac.ok());
  GlyphSpec spec = GlyphSpecFromMcac(*mcac, corpus.items);
  EXPECT_DOUBLE_EQ(spec.target_value, mcac->target.confidence);
  ASSERT_EQ(spec.levels.size(), 2u);
  EXPECT_EQ(spec.levels[0].size(), 3u);
  EXPECT_EQ(spec.levels[1].size(), 3u);
  EXPECT_EQ(spec.sector_labels.size(), 6u);
  EXPECT_NE(spec.title.find("[ASTHMA]"), std::string::npos);
  // Labels follow level-major order: single drugs first.
  EXPECT_EQ(spec.sector_labels[0].find("] ["), std::string::npos);
  EXPECT_NE(spec.sector_labels[3].find("] ["), std::string::npos);
}

}  // namespace
}  // namespace maras::viz
