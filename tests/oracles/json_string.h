#ifndef MARAS_TESTS_ORACLES_JSON_STRING_H_
#define MARAS_TESTS_ORACLES_JSON_STRING_H_

#include <optional>
#include <string>
#include <string_view>

namespace maras::json {

// Reference decoder for the string literals json::Serialize writes: decodes
// the literal at the front of `*text` and advances past it. nullopt on
// anything the serializer must never write — a missing quote, a raw control
// byte, an escape JSON does not define, or a \u escape other than the
// lower-case \u00XX (XX < 0x20) used for control bytes.
inline std::optional<std::string> DecodeStringLiteral(std::string_view* text) {
  auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  if (text->empty() || text->front() != '"') return std::nullopt;
  std::string out;
  size_t i = 1;
  for (;;) {
    if (i >= text->size()) return std::nullopt;  // unterminated
    const char c = (*text)[i++];
    if (c == '"') break;
    if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (i >= text->size()) return std::nullopt;
    switch ((*text)[i++]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 > text->size() || (*text)[i] != '0' ||
            (*text)[i + 1] != '0') {
          return std::nullopt;
        }
        const int high = hex((*text)[i + 2]);
        const int low = hex((*text)[i + 3]);
        if (high < 0 || high > 1 || low < 0) return std::nullopt;
        out += static_cast<char>(high * 16 + low);
        i += 4;
        break;
      }
      default:
        return std::nullopt;
    }
  }
  text->remove_prefix(i);
  return out;
}

}  // namespace maras::json

#endif  // MARAS_TESTS_ORACLES_JSON_STRING_H_
