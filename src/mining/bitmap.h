#ifndef MARAS_MINING_BITMAP_H_
#define MARAS_MINING_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mining/transaction_db.h"

namespace maras::mining {

// ---------------------------------------------------------------------------
// Fixed-width bitmap kernels over the vertical tid index.
//
// A TidBitmap represents a set of transaction ids drawn from a fixed
// universe [0, universe) as packed 64-bit words. Its users are the 2×2
// contingency tables (core/disproportionality ContingencyBatch), the
// stratified tables (core/stratified) and the supporting-report lists of a
// snapshot publish (core::SupportingReportLists): their support counting
// and tid-set intersection become word-wise AND (+ popcount) over
// contiguous arrays instead of a branchy merge over std::vector<Tid>. The
// kernels below are written as plain loops the compiler can autovectorize,
// with an AVX2 path selected at runtime on x86-64 (and a NEON path
// compiled in on aarch64); every backend computes bit-identical counts,
// which mining_bitmap_kernel_test proves against a scalar
// std::set_intersection oracle.
// ---------------------------------------------------------------------------

using BitmapWord = uint64_t;

inline constexpr size_t kBitmapWordBits = 64;

// Words processed per cache block by the long-loop kernels: 512 words =
// 4 KiB per operand, so two operands of a blocked AND+popcount fit in L1
// alongside the accumulator state.
inline constexpr size_t kBitmapBlockWords = 512;

// Fixed-universe bitset keyed by TransactionId. Bits beyond `universe` in
// the trailing partial word are kept zero — every kernel relies on that
// invariant, and DCHECK-style tests assert it after each mutating op.
class TidBitmap {
 public:
  TidBitmap() = default;
  explicit TidBitmap(size_t universe) { Reset(universe); }

  // Resizes to `universe` bits and clears every bit. Keeps capacity, so a
  // recycled scratch bitmap re-Reset() allocates nothing.
  void Reset(size_t universe);

  // Sets every bit in [0, universe): the bitmap of the empty itemset
  // (every transaction trivially contains it). Trailing bits stay zero.
  void Fill();

  void Set(TransactionId tid);
  bool Test(TransactionId tid) const;

  size_t universe() const { return universe_; }
  size_t word_count() const { return words_.size(); }

  const BitmapWord* words() const { return words_.data(); }
  BitmapWord* mutable_words() { return words_.data(); }

  // Builds the bitmap of a sorted tid-list.
  static TidBitmap FromTids(const std::vector<TransactionId>& tids,
                            size_t universe);

  // Decodes back to the ascending tid-list.
  std::vector<TransactionId> ToTids() const;

  // Calls fn(tid) for every set bit, in increasing tid order.
  template <typename Fn>
  void ForEachTid(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      BitmapWord word = words_[w];
      const size_t base = w * kBitmapWordBits;
      while (word != 0) {
        fn(static_cast<TransactionId>(
            base + static_cast<size_t>(std::countr_zero(word))));
        word &= word - 1;  // clear the lowest set bit
      }
    }
  }

 private:
  size_t universe_ = 0;
  std::vector<BitmapWord> words_;
};

// --- word-wise kernels (runtime-dispatched on x86-64) ----------------------

// |a| — population count of the whole bitmap.
size_t BitmapPopcount(const TidBitmap& a);

// |a ∧ b| without materializing the intersection. Universes must match.
size_t AndPopcount(const TidBitmap& a, const TidBitmap& b);

// |a ∧ b ∧ c| — one fused pass for stratified cell counts.
size_t And3Popcount(const TidBitmap& a, const TidBitmap& b,
                    const TidBitmap& c);

// out = a ∧ b, materialized; returns |out|. `out` is Reset to the common
// universe first, so any recycled bitmap may be passed.
size_t BitmapAnd(const TidBitmap& a, const TidBitmap& b, TidBitmap* out);

// acc = acc ∧ b, in place; returns |acc|. Universes must match.
size_t BitmapAndInto(TidBitmap* acc, const TidBitmap& b);

// Name of the word-kernel backend the runtime dispatch selected: "avx2",
// "neon", or "scalar". Stable for the life of the process.
const char* BitmapKernelBackend();

}  // namespace maras::mining

#endif  // MARAS_MINING_BITMAP_H_
