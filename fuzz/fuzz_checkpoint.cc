// Fuzz harness for the checkpoint payload codecs — the decoders gate crash
// recovery: a resumed pipeline feeds whatever survived on disk straight
// into these, so they must reject arbitrary bytes with Corruption, never
// crash or over-read.
//
// Input layout: first byte selects the decoder (byte % 6: 0 preprocess,
// 1 quarter, 2 itemsets, 3 closed, 4 rules, 5 ranked MCACs), the rest is the
// payload.
// When a decode succeeds, the value is re-encoded: encode must accept any
// value decode produced (the round-trip half of the codec contract).

#include <string_view>

#include "core/checkpoint.h"
#include "fuzz/fuzz_target.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const std::string_view payload(reinterpret_cast<const char*>(data) + 1,
                                 size - 1);
  switch (data[0] % 6) {
    case 0: {
      auto v = maras::core::DecodePreprocessResult(payload);
      if (v.ok()) maras::core::EncodePreprocessResult(*v);
      break;
    }
    case 1: {
      auto v = maras::core::DecodeQuarterCheckpoint(payload);
      if (v.ok()) maras::core::EncodeQuarterCheckpoint(*v);
      break;
    }
    case 2: {
      auto v = maras::core::DecodeItemsetResult(payload);
      if (v.ok()) maras::core::EncodeItemsetResult(*v);
      break;
    }
    case 3: {
      auto v = maras::core::DecodeClosedCheckpoint(payload);
      if (v.ok()) maras::core::EncodeClosedCheckpoint(*v);
      break;
    }
    case 4: {
      auto v = maras::core::DecodeRules(payload);
      if (v.ok()) maras::core::EncodeRules(*v);
      break;
    }
    default: {
      auto v = maras::core::DecodeRankedMcacs(payload);
      if (v.ok()) maras::core::EncodeRankedMcacs(*v);
      break;
    }
  }
  return 0;
}
