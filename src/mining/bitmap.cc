#include "mining/bitmap.h"

#include "util/logging.h"

namespace maras::mining {

namespace {

size_t WordsFor(size_t universe) {
  return (universe + kBitmapWordBits - 1) / kBitmapWordBits;
}

// out[i] = a[i] & b[i] for i < n; true when any result word is non-zero.
// Each word of a and b is read before out[i] is written, so `out` may alias
// `a`.
bool AndWords(const BitmapWord* a, const BitmapWord* b, BitmapWord* out,
              size_t n) {
  BitmapWord any = 0;
  for (size_t i = 0; i < n; ++i) {
    const BitmapWord w = a[i] & b[i];
    out[i] = w;
    any |= w;
  }
  return any != 0;
}

}  // namespace

void TidBitmap::Reset(size_t universe) {
  universe_ = universe;
  words_.assign(WordsFor(universe), 0);
}

void TidBitmap::Set(TransactionId tid) {
  words_[tid / kBitmapWordBits] |= BitmapWord{1} << (tid % kBitmapWordBits);
}

bool TidBitmap::Test(TransactionId tid) const {
  if (static_cast<size_t>(tid) >= universe_) return false;
  return (words_[tid / kBitmapWordBits] >> (tid % kBitmapWordBits)) & 1u;
}

std::vector<TransactionId> TidBitmap::ToTids() const {
  std::vector<TransactionId> out;
  ForEachTid([&out](TransactionId tid) { out.push_back(tid); });
  return out;
}

bool BitmapAnd(const TidBitmap& a, const TidBitmap& b, TidBitmap* out) {
  MARAS_CHECK(a.universe() == b.universe()) << "universe mismatch";
  out->Reset(a.universe());
  return AndWords(a.words(), b.words(), out->mutable_words(), a.word_count());
}

bool BitmapAndInto(TidBitmap* acc, const TidBitmap& b) {
  MARAS_CHECK(acc->universe() == b.universe()) << "universe mismatch";
  return AndWords(acc->words(), b.words(), acc->mutable_words(),
                  b.word_count());
}

}  // namespace maras::mining
