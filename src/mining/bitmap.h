#ifndef MARAS_MINING_BITMAP_H_
#define MARAS_MINING_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mining/transaction_db.h"

namespace maras::mining {

// ---------------------------------------------------------------------------
// Fixed-width tid bitmaps and their AND.
//
// A TidBitmap represents a set of transaction ids drawn from a fixed
// universe [0, universe) as packed 64-bit words. Its user is the
// supporting-report lists of a snapshot publish
// (core::SupportingReportLists): a rule's reports are the AND of its items'
// bitmaps, one word at a time over contiguous arrays instead of a branchy
// merge over std::vector<Tid>. The AND is one plain loop the compiler may
// vectorize; mining_bitmap_kernel_test checks it against
// std::set_intersection.
// ---------------------------------------------------------------------------

using BitmapWord = uint64_t;

inline constexpr size_t kBitmapWordBits = 64;

// Fixed-universe bitset keyed by TransactionId. Bits beyond `universe` in
// the trailing partial word are kept zero: Set never writes them and the
// AND of two such bitmaps cannot set them.
class TidBitmap {
 public:
  TidBitmap() = default;
  explicit TidBitmap(size_t universe) { Reset(universe); }

  // Resizes to `universe` bits and clears every bit. Keeps capacity, so a
  // recycled scratch bitmap re-Reset() allocates nothing.
  void Reset(size_t universe);

  void Set(TransactionId tid);
  bool Test(TransactionId tid) const;

  size_t universe() const { return universe_; }
  size_t word_count() const { return words_.size(); }

  const BitmapWord* words() const { return words_.data(); }
  BitmapWord* mutable_words() { return words_.data(); }

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

// out = a ∧ b; returns whether out has any bit set. `out` is Reset to the
// common universe first, so any recycled bitmap may be passed. Universes
// must match.
bool BitmapAnd(const TidBitmap& a, const TidBitmap& b, TidBitmap* out);

// acc = acc ∧ b, in place; returns whether acc has any bit set. Universes
// must match.
bool BitmapAndInto(TidBitmap* acc, const TidBitmap& b);

}  // namespace maras::mining

#endif  // MARAS_MINING_BITMAP_H_
