#ifndef MARAS_UTIL_JSON_H_
#define MARAS_UTIL_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace maras::json {

// A small, dependency-free JSON value model with a deterministic serializer
// (object keys kept in sorted order). Used for exporting analysis results to
// downstream tools and for the bench binaries' result files.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value>;

  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}               // NOLINT
  Value(bool b) : type_(Type::kBool), bool_(b) {}             // NOLINT
  Value(double n) : type_(Type::kNumber), number_(n) {}       // NOLINT
  Value(int n) : Value(static_cast<double>(n)) {}             // NOLINT
  Value(long long n) : Value(static_cast<double>(n)) {}       // NOLINT
  Value(size_t n) : Value(static_cast<double>(n)) {}          // NOLINT
  Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Value(const char* s) : Value(std::string(s)) {}             // NOLINT
  Value(Array a) : type_(Type::kArray), array_(std::move(a)) {}    // NOLINT
  Value(Object o) : type_(Type::kObject), object_(std::move(o)) {}  // NOLINT

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors; calling the wrong one on a value is a programming
  // error (checked by assert via MARAS_CHECK in the implementation).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

// Serializes; `pretty` adds two-space indentation.
std::string Serialize(const Value& value, bool pretty = false);

}  // namespace maras::json

#endif  // MARAS_UTIL_JSON_H_
