#include "util/json.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "tests/oracles/json_string.h"
#include "util/random.h"

namespace maras::json {
namespace {

TEST(JsonSerializeTest, Compact) {
  Value v(Value::Object{{"b", Value(2)}, {"a", Value(Value::Array{
                                             Value(1), Value("x")})}});
  // Keys serialize in sorted order -> deterministic output.
  EXPECT_EQ(Serialize(v), R"({"a":[1,"x"],"b":2})");
}

TEST(JsonSerializeTest, EscapesInOutput) {
  Value v(std::string("line\nbreak \"quoted\""));
  EXPECT_EQ(Serialize(v), R"("line\nbreak \"quoted\"")");
}

TEST(JsonSerializeTest, IntegersWithoutDecimalPoint) {
  EXPECT_EQ(Serialize(Value(12345)), "12345");
  EXPECT_EQ(Serialize(Value(0.5)), "0.5");
}

TEST(JsonSerializeTest, EmptyContainers) {
  EXPECT_EQ(Serialize(Value(Value::Array{})), "[]");
  EXPECT_EQ(Serialize(Value(Value::Object{})), "{}");
}

TEST(JsonSerializeTest, EscapesQuotesAndBackslash) {
  EXPECT_EQ(Serialize(Value("say \"hi\"")), R"("say \"hi\"")");
  EXPECT_EQ(Serialize(Value("C:\\dir\\file")), R"("C:\\dir\\file")");
}

TEST(JsonSerializeTest, ControlCharactersAreEscaped) {
  EXPECT_EQ(Serialize(Value("\b\f\n\r\t")), R"("\b\f\n\r\t")");
  // Control characters without a short escape use \u00XX, lower-case hex.
  EXPECT_EQ(Serialize(Value(std::string("a\x01" "b\x1f"))),
            R"("a\u0001b\u001f")");
  EXPECT_EQ(Serialize(Value(std::string("\0", 1))), R"("\u0000")");
}

TEST(JsonSerializeTest, NonAsciiBytesPassThrough) {
  // UTF-8 is written as is (é, €), and so is DEL; only bytes below 0x20
  // are escaped.
  EXPECT_EQ(Serialize(Value("\xC3\xA9\xE2\x82\xAC\x7f")),
            "\"\xC3\xA9\xE2\x82\xAC\x7f\"");
}

TEST(JsonSerializeTest, KeysAreEscapedToo) {
  Value v(Value::Object{{"a\"b", Value(nullptr)}, {"t\tab", Value(true)}});
  EXPECT_EQ(Serialize(v), R"({"a\"b":null,"t\tab":true})");
}

TEST(JsonSerializeTest, PrettyIndentsTwoSpaces) {
  Value v(Value::Object{
      {"a", Value(Value::Array{Value(1), Value(Value::Object{{"b", "c"}})})},
      {"d", Value(nullptr)}});
  EXPECT_EQ(Serialize(v, /*pretty=*/true),
            "{\n"
            "  \"a\": [\n"
            "    1,\n"
            "    {\n"
            "      \"b\": \"c\"\n"
            "    }\n"
            "  ],\n"
            "  \"d\": null\n"
            "}\n");
}

TEST(JsonSerializeTest, FractionsRoundTripDigits) {
  EXPECT_EQ(Serialize(Value(-3.5)), "-3.5");
  EXPECT_EQ(Serialize(Value(0.1)), "0.10000000000000001");
  EXPECT_EQ(Serialize(Value(false)), "false");
}

// Random byte mutations of a drug name (control bytes, quotes, backslashes
// and non-ASCII included) must serialize to a string literal that decodes
// back to exactly the mutated bytes.
TEST(JsonFuzzTest, MutationsNeverCrash) {
  const std::string base = "ACETAMINOPHEN \"EXTRA\" STRENGTH\\500 MG";
  maras::Rng rng(616);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = base;
    for (size_t e = 1 + rng.Uniform(4); e > 0; --e) {
      const size_t pos = rng.Uniform(mutated.size() + 1);
      const char byte = static_cast<char>(rng.Uniform(256));
      if (pos < mutated.size() && rng.Uniform(2) == 0) {
        mutated[pos] = byte;
      } else {
        mutated.insert(pos, 1, byte);
      }
    }
    const std::string serialized = Serialize(Value(mutated));
    std::string_view rest = serialized;
    EXPECT_EQ(DecodeStringLiteral(&rest), mutated) << serialized;
    EXPECT_TRUE(rest.empty()) << serialized;
  }
}

}  // namespace
}  // namespace maras::json
