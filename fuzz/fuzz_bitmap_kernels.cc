// Fuzz harness for mining/bitmap.h. The input is decoded into a universe
// and two sorted tid-lists (delta-coded, so every byte string decodes to a
// valid input); the lists become bitmaps and are pushed through the
// materializing and the in-place AND, and each result (whether it is
// non-empty, and its decoded tids) is checked against a scalar
// std::set_intersection oracle. Any disagreement traps: the AND builds a
// snapshot's supporting report ids, where a single off-by-one silently
// drops or invents a report rather than crashing.
//
// Input layout:
//   [0..1] universe (little-endian, modded into [0, 8192])
//   [2]    split point between the two delta streams
//   [3..]  payload: first part decodes tid-list A, rest decodes tid-list B

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fuzz/fuzz_target.h"
#include "mining/bitmap.h"

namespace {

using maras::mining::TidBitmap;
using maras::mining::TransactionId;
using Tids = std::vector<TransactionId>;

// Strictly-increasing tids from a delta stream, truncated at the universe.
Tids DecodeTids(const uint8_t* data, size_t size, size_t universe) {
  Tids tids;
  uint64_t next = 0;
  for (size_t i = 0; i < size; ++i) {
    next += i == 0 ? data[i] : 1u + data[i];
    if (next >= universe) break;
    tids.push_back(static_cast<TransactionId>(next));
  }
  return tids;
}

TidBitmap FromTids(const Tids& tids, size_t universe) {
  TidBitmap bm(universe);
  for (TransactionId tid : tids) bm.Set(tid);
  return bm;
}

Tids OracleIntersect(const Tids& a, const Tids& b) {
  Tids out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

void Require(bool ok) {
  if (!ok) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 3) return 0;
  const size_t universe =
      (static_cast<size_t>(data[0]) | (static_cast<size_t>(data[1]) << 8)) %
      8193;
  const uint8_t* payload = data + 3;
  const size_t payload_size = size - 3;
  const size_t split = payload_size * static_cast<size_t>(data[2]) / 255;

  const Tids a = DecodeTids(payload, split, universe);
  const Tids b = DecodeTids(payload + split, payload_size - split, universe);
  const Tids both = OracleIntersect(a, b);

  // Bitmaps decode back to their tid-lists.
  const TidBitmap abm = FromTids(a, universe);
  const TidBitmap bbm = FromTids(b, universe);
  Require(abm.ToTids() == a);
  for (TransactionId tid : a) Require(abm.Test(tid));

  // Both ANDs against the merge oracle, each operand order.
  TidBitmap out;
  Require(maras::mining::BitmapAnd(abm, bbm, &out) == !both.empty());
  Require(out.ToTids() == both);
  Require(maras::mining::BitmapAnd(bbm, abm, &out) == !both.empty());
  Require(out.ToTids() == both);
  TidBitmap acc = abm;
  Require(maras::mining::BitmapAndInto(&acc, bbm) == !both.empty());
  Require(acc.ToTids() == both);
  // In place with itself: the accumulator is also the operand.
  acc = abm;
  Require(maras::mining::BitmapAndInto(&acc, acc) == !a.empty());
  Require(acc.ToTids() == a);
  return 0;
}
