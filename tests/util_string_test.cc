#include "util/string_util.h"

#include <gtest/gtest.h>

namespace maras {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, TrailingDelimiterYieldsEmptyField) {
  EXPECT_EQ(Split("a,b,", ','), (std::vector<std::string>{"a", "b", ""}));
}

TEST(SplitTest, EmptyInputGivesOneEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts{"x", "", "z"};
  EXPECT_EQ(Split(Join(parts, '|'), '|'), parts);
}

TEST(JoinTest, StringDelimiter) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ", "), "");
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  hi there \t\n"), "hi there");
  EXPECT_EQ(StripWhitespace("\t \n"), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(CaseTest, AsciiConversions) {
  EXPECT_EQ(ToUpperAscii("Warfarin 5mg"), "WARFARIN 5MG");
  EXPECT_EQ(ToUpperAscii("aspirin-\xC3\xA9"), "ASPIRIN-\xC3\xA9");
}

TEST(CollapseWhitespaceTest, CollapsesRuns) {
  EXPECT_EQ(CollapseWhitespace("a  b\t\tc"), "a b c");
  EXPECT_EQ(CollapseWhitespace("  leading"), "leading");
  EXPECT_EQ(CollapseWhitespace("trailing  "), "trailing");
  EXPECT_EQ(CollapseWhitespace(""), "");
}

TEST(FormatDoubleTest, Digits) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(FormatWithCommasTest, GroupsThousands) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(126755), "126,755");
  EXPECT_EQ(FormatWithCommas(-1234567), "-1,234,567");
}

}  // namespace
}  // namespace maras
