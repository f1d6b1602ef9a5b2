// Fuzz harness for util/json's serializer. Analysis exports carry drug and
// reaction names straight from FAERS extracts, so any byte string can reach
// a JSON string value or object key. Every input is serialized as both; the
// output must decode, with the reference decoder in tests/oracles, back to
// exactly the input bytes.

#include <string>
#include <string_view>

#include "fuzz/fuzz_target.h"
#include "tests/oracles/json_string.h"
#include "util/json.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using maras::json::Value;
  const std::string input(reinterpret_cast<const char*>(data), size);

  const std::string value = maras::json::Serialize(Value(input));
  std::string_view rest = value;
  if (maras::json::DecodeStringLiteral(&rest) != input || !rest.empty()) {
    __builtin_trap();
  }

  // The same bytes as an object key, compact: {"<key>":null}.
  const std::string object =
      maras::json::Serialize(Value(Value::Object{{input, nullptr}}));
  rest = object;
  if (rest.empty() || rest.front() != '{') __builtin_trap();
  rest.remove_prefix(1);
  if (maras::json::DecodeStringLiteral(&rest) != input || rest != ":null}") {
    __builtin_trap();
  }
  return 0;
}
