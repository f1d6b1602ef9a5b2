#include "util/json.h"

#include <cmath>
#include <cstdio>

#include "util/logging.h"

namespace maras::json {

bool Value::as_bool() const {
  MARAS_CHECK(is_bool()) << "not a bool";
  return bool_;
}
double Value::as_number() const {
  MARAS_CHECK(is_number()) << "not a number";
  return number_;
}
const std::string& Value::as_string() const {
  MARAS_CHECK(is_string()) << "not a string";
  return string_;
}
const Value::Array& Value::as_array() const {
  MARAS_CHECK(is_array()) << "not an array";
  return array_;
}
const Value::Object& Value::as_object() const {
  MARAS_CHECK(is_object()) << "not an object";
  return object_;
}

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

void AppendNumber(double v, std::string* out) {
  // Integers print without a decimal point; everything else uses %.17g for
  // round-trip fidelity.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    *out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    *out += buf;
  }
}

void SerializeTo(const Value& value, bool pretty, int indent,
                 std::string* out) {
  auto newline = [&](int level) {
    if (!pretty) return;
    *out += '\n';
    out->append(static_cast<size_t>(level) * 2, ' ');
  };
  switch (value.type()) {
    case Value::Type::kNull:
      *out += "null";
      break;
    case Value::Type::kBool:
      *out += value.as_bool() ? "true" : "false";
      break;
    case Value::Type::kNumber:
      AppendNumber(value.as_number(), out);
      break;
    case Value::Type::kString:
      AppendEscaped(value.as_string(), out);
      break;
    case Value::Type::kArray: {
      const auto& array = value.as_array();
      if (array.empty()) {
        *out += "[]";
        break;
      }
      *out += '[';
      for (size_t i = 0; i < array.size(); ++i) {
        if (i > 0) *out += ',';
        newline(indent + 1);
        SerializeTo(array[i], pretty, indent + 1, out);
      }
      newline(indent);
      *out += ']';
      break;
    }
    case Value::Type::kObject: {
      const auto& object = value.as_object();
      if (object.empty()) {
        *out += "{}";
        break;
      }
      *out += '{';
      bool first = true;
      for (const auto& [key, element] : object) {
        if (!first) *out += ',';
        first = false;
        newline(indent + 1);
        AppendEscaped(key, out);
        *out += pretty ? ": " : ":";
        SerializeTo(element, pretty, indent + 1, out);
      }
      newline(indent);
      *out += '}';
      break;
    }
  }
}

}  // namespace

std::string Serialize(const Value& value, bool pretty) {
  std::string out;
  SerializeTo(value, pretty, 0, &out);
  if (pretty) out += '\n';
  return out;
}

}  // namespace maras::json
