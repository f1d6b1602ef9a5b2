#include "viz/svg.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "viz/color.h"

namespace maras::viz {
namespace {

TEST(SvgTest, EmptyDocumentIsValidSvg) {
  SvgDocument doc(100, 50);
  std::string svg = doc.Render();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("width=\"100.00\""), std::string::npos);
  EXPECT_NE(svg.find("height=\"50.00\""), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(SvgTest, CircleElement) {
  SvgDocument doc(10, 10);
  SvgDocument::Style style;
  style.fill = "#FF0000";
  doc.Circle(5, 5, 2.5, style);
  std::string svg = doc.Render();
  EXPECT_NE(svg.find("<circle cx=\"5.00\" cy=\"5.00\" r=\"2.50\""),
            std::string::npos);
  EXPECT_NE(svg.find("fill=\"#FF0000\""), std::string::npos);
}

TEST(SvgTest, RectLinePathText) {
  SvgDocument doc(10, 10);
  SvgDocument::Style stroke;
  stroke.stroke = "#000000";
  stroke.stroke_width = 1.5;
  doc.Rect(0, 1, 2, 3, stroke);
  doc.Line(0, 0, 5, 5, stroke);
  doc.Path("M 0 0 L 1 1 Z", stroke);
  SvgDocument::TextStyle text;
  text.bold = true;
  doc.Text(1, 2, "hello", text);
  std::string svg = doc.Render();
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("<line"), std::string::npos);
  EXPECT_NE(svg.find("<path d=\"M 0 0 L 1 1 Z\""), std::string::npos);
  EXPECT_NE(svg.find(">hello</text>"), std::string::npos);
  EXPECT_NE(svg.find("font-weight=\"bold\""), std::string::npos);
  EXPECT_NE(svg.find("stroke-width=\"1.50\""), std::string::npos);
}

TEST(SvgTest, TextEscaping) {
  SvgDocument doc(10, 10);
  doc.Text(0, 0, "<a & \"b\">", {});
  std::string svg = doc.Render();
  EXPECT_NE(svg.find("&lt;a &amp; &quot;b&quot;&gt;"), std::string::npos);
  EXPECT_EQ(svg.find("<a &"), std::string::npos);
}

TEST(SvgTest, OpacityEmittedOnlyWhenBelowOne) {
  SvgDocument doc(10, 10);
  SvgDocument::Style opaque;
  opaque.fill = "#111111";
  doc.Circle(0, 0, 1, opaque);
  SvgDocument::Style faint = opaque;
  faint.opacity = 0.4;
  doc.Circle(0, 0, 1, faint);
  std::string svg = doc.Render();
  EXPECT_EQ(svg.find("opacity"), svg.rfind("opacity"));  // exactly once
}

TEST(SvgTest, EmbedTransformsAndBalances) {
  SvgDocument inner(50, 50);
  inner.Circle(25, 25, 10, {});
  inner.Rect(0, 0, 5, 5, {});
  SvgDocument outer(200, 100);
  outer.Embed(inner, 60, 10, 1.5);
  std::string svg = outer.Render();
  EXPECT_NE(svg.find("translate(60.00,10.00) scale(1.50)"),
            std::string::npos);
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  // Balanced markup: the embed is one closed group.
  size_t opens = 0, closes = 0, pos = 0;
  while ((pos = svg.find("<g ", pos)) != std::string::npos) {
    ++opens;
    ++pos;
  }
  pos = 0;
  while ((pos = svg.find("</g>", pos)) != std::string::npos) {
    ++closes;
    ++pos;
  }
  EXPECT_EQ(opens, closes);
  // The outer document itself still renders cleanly afterwards.
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(SvgTest, EmbedIsByValueSnapshot) {
  SvgDocument inner(10, 10);
  inner.Circle(1, 1, 1, {});
  SvgDocument outer(20, 20);
  outer.Embed(inner, 0, 0);
  inner.Circle(2, 2, 2, {});  // must not retroactively appear in outer
  size_t count = 0, pos = 0;
  std::string svg = outer.Render();
  while ((pos = svg.find("<circle", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 1u);
}

TEST(SvgTest, WriteFile) {
  std::string path = ::testing::TempDir() + "/maras_svg_test.svg";
  SvgDocument doc(10, 10);
  doc.Circle(5, 5, 4, {});
  ASSERT_TRUE(doc.WriteFile(path).ok());
  std::remove(path.c_str());
}

TEST(ColorTest, HexFormat) {
  EXPECT_EQ((Color{255, 0, 128}).ToHex(), "#FF0080");
  EXPECT_EQ((Color{0, 0, 0}).ToHex(), "#000000");
}

TEST(ColorTest, MixEndpoints) {
  // The level palette interpolates light steel blue to dark navy: the ends
  // are exact, the middle level is the rounded midpoint.
  EXPECT_EQ(LevelColor(1, 3).ToHex(), "#C6DBEF");
  EXPECT_EQ(LevelColor(3, 3).ToHex(), "#08306B");
  const Color mid = LevelColor(2, 3);
  EXPECT_EQ(mid.r, 103);
  EXPECT_EQ(mid.g, 134);
  EXPECT_EQ(mid.b, 173);
}

TEST(ColorTest, LevelColorsDarkenWithCardinality) {
  // "The darker the larger": higher level -> lower channel values.
  Color l1 = LevelColor(1, 3);
  Color l2 = LevelColor(2, 3);
  Color l3 = LevelColor(3, 3);
  EXPECT_GT(l1.r + l1.g + l1.b, l2.r + l2.g + l2.b);
  EXPECT_GT(l2.r + l2.g + l2.b, l3.r + l3.g + l3.b);
}

TEST(ColorTest, SingleLevelIsDark) {
  EXPECT_EQ(LevelColor(1, 1).ToHex(), (Color{8, 48, 107}).ToHex());
}

}  // namespace
}  // namespace maras::viz
