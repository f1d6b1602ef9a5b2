#include "mining/bitmap.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace maras::mining {

namespace {

size_t WordsFor(size_t universe) {
  return (universe + kBitmapWordBits - 1) / kBitmapWordBits;
}

// --- scalar backend --------------------------------------------------------
// Plain loops over 64-bit words, cache-blocked so each pass touches at most
// kBitmapBlockWords (4 KiB) per operand before folding into the running
// count. gcc/clang autovectorize these; the dedicated SIMD backends below
// only sharpen the popcount reduction.

size_t PopcountScalar(const BitmapWord* a, size_t n) {
  size_t total = 0;
  for (size_t base = 0; base < n; base += kBitmapBlockWords) {
    const size_t end = std::min(n, base + kBitmapBlockWords);
    size_t block = 0;
    for (size_t i = base; i < end; ++i) {
      block += static_cast<size_t>(std::popcount(a[i]));
    }
    total += block;
  }
  return total;
}

size_t AndPopcountScalar(const BitmapWord* a, const BitmapWord* b, size_t n) {
  size_t total = 0;
  for (size_t base = 0; base < n; base += kBitmapBlockWords) {
    const size_t end = std::min(n, base + kBitmapBlockWords);
    size_t block = 0;
    for (size_t i = base; i < end; ++i) {
      block += static_cast<size_t>(std::popcount(a[i] & b[i]));
    }
    total += block;
  }
  return total;
}

size_t And3PopcountScalar(const BitmapWord* a, const BitmapWord* b,
                          const BitmapWord* c, size_t n) {
  size_t total = 0;
  for (size_t base = 0; base < n; base += kBitmapBlockWords) {
    const size_t end = std::min(n, base + kBitmapBlockWords);
    size_t block = 0;
    for (size_t i = base; i < end; ++i) {
      block += static_cast<size_t>(std::popcount(a[i] & b[i] & c[i]));
    }
    total += block;
  }
  return total;
}

size_t AndStoreScalar(const BitmapWord* a, const BitmapWord* b,
                      BitmapWord* out, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    const BitmapWord w = a[i] & b[i];
    out[i] = w;
    total += static_cast<size_t>(std::popcount(w));
  }
  return total;
}

#if defined(__x86_64__)
// --- AVX2 backend ----------------------------------------------------------
// 256-bit AND + the Muła nibble-shuffle popcount: vpshufb looks up the
// per-nibble bit counts, vpsadbw folds the byte counts into four 64-bit
// lanes, and one horizontal add per block closes the reduction. Compiled
// with per-function target attributes so the translation unit itself stays
// baseline x86-64; ActiveKernels() only selects this backend when
// __builtin_cpu_supports("avx2") says the host has it.

__attribute__((target("avx2"))) inline __m256i Popcount256(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline size_t HorizontalSum(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<size_t>(static_cast<uint64_t>(_mm_cvtsi128_si64(sum)) +
                             static_cast<uint64_t>(_mm_extract_epi64(sum, 1)));
}

__attribute__((target("avx2"))) size_t PopcountAvx2(const BitmapWord* a,
                                                    size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    acc = _mm256_add_epi64(acc, Popcount256(v));
  }
  size_t total = HorizontalSum(acc);
  for (; i < n; ++i) total += static_cast<size_t>(std::popcount(a[i]));
  return total;
}

__attribute__((target("avx2"))) size_t AndPopcountAvx2(const BitmapWord* a,
                                                       const BitmapWord* b,
                                                       size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_and_si256(va, vb)));
  }
  size_t total = HorizontalSum(acc);
  for (; i < n; ++i) {
    total += static_cast<size_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

__attribute__((target("avx2"))) size_t And3PopcountAvx2(const BitmapWord* a,
                                                        const BitmapWord* b,
                                                        const BitmapWord* c,
                                                        size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + i));
    acc = _mm256_add_epi64(
        acc, Popcount256(_mm256_and_si256(_mm256_and_si256(va, vb), vc)));
  }
  size_t total = HorizontalSum(acc);
  for (; i < n; ++i) {
    total += static_cast<size_t>(std::popcount(a[i] & b[i] & c[i]));
  }
  return total;
}

__attribute__((target("avx2"))) size_t AndStoreAvx2(const BitmapWord* a,
                                                    const BitmapWord* b,
                                                    BitmapWord* out,
                                                    size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i w = _mm256_and_si256(va, vb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), w);
    acc = _mm256_add_epi64(acc, Popcount256(w));
  }
  size_t total = HorizontalSum(acc);
  for (; i < n; ++i) {
    const BitmapWord w = a[i] & b[i];
    out[i] = w;
    total += static_cast<size_t>(std::popcount(w));
  }
  return total;
}

#endif  // __x86_64__

#if defined(__aarch64__) && defined(__ARM_NEON)
// --- NEON backend ----------------------------------------------------------
// aarch64 mandates NEON, so this backend is selected at compile time: vcnt
// counts bits per byte, vaddv folds the 16 byte counts of each 128-bit
// chunk into the scalar accumulator.

inline uint8x16_t LoadU8(const BitmapWord* p) {
  return vld1q_u8(reinterpret_cast<const uint8_t*>(p));
}

size_t PopcountNeon(const BitmapWord* a, size_t n) {
  size_t total = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    total += vaddvq_u8(vcntq_u8(LoadU8(a + i)));
  }
  for (; i < n; ++i) total += static_cast<size_t>(std::popcount(a[i]));
  return total;
}

size_t AndPopcountNeon(const BitmapWord* a, const BitmapWord* b, size_t n) {
  size_t total = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    total += vaddvq_u8(vcntq_u8(vandq_u8(LoadU8(a + i), LoadU8(b + i))));
  }
  for (; i < n; ++i) {
    total += static_cast<size_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

size_t And3PopcountNeon(const BitmapWord* a, const BitmapWord* b,
                        const BitmapWord* c, size_t n) {
  size_t total = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    total += vaddvq_u8(vcntq_u8(
        vandq_u8(vandq_u8(LoadU8(a + i), LoadU8(b + i)), LoadU8(c + i))));
  }
  for (; i < n; ++i) {
    total += static_cast<size_t>(std::popcount(a[i] & b[i] & c[i]));
  }
  return total;
}

size_t AndStoreNeon(const BitmapWord* a, const BitmapWord* b, BitmapWord* out,
                    size_t n) {
  size_t total = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint8x16_t w = vandq_u8(LoadU8(a + i), LoadU8(b + i));
    vst1q_u8(reinterpret_cast<uint8_t*>(out + i), w);
    total += vaddvq_u8(vcntq_u8(w));
  }
  for (; i < n; ++i) {
    const BitmapWord w = a[i] & b[i];
    out[i] = w;
    total += static_cast<size_t>(std::popcount(w));
  }
  return total;
}

#endif  // __aarch64__ && __ARM_NEON

// --- runtime dispatch ------------------------------------------------------

struct Kernels {
  const char* name;
  size_t (*popcount)(const BitmapWord*, size_t);
  size_t (*and_popcount)(const BitmapWord*, const BitmapWord*, size_t);
  size_t (*and3_popcount)(const BitmapWord*, const BitmapWord*,
                          const BitmapWord*, size_t);
  size_t (*and_store)(const BitmapWord*, const BitmapWord*, BitmapWord*,
                      size_t);
};

constexpr Kernels kScalarKernels = {"scalar", PopcountScalar,
                                    AndPopcountScalar, And3PopcountScalar,
                                    AndStoreScalar};

Kernels SelectKernels() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) {
    return Kernels{"avx2", PopcountAvx2, AndPopcountAvx2, And3PopcountAvx2,
                   AndStoreAvx2};
  }
#elif defined(__aarch64__) && defined(__ARM_NEON)
  return Kernels{"neon", PopcountNeon, AndPopcountNeon, And3PopcountNeon,
                 AndStoreNeon};
#endif
  return kScalarKernels;
}

const Kernels& ActiveKernels() {
  static const Kernels kernels = SelectKernels();
  return kernels;
}

}  // namespace

// --- TidBitmap -------------------------------------------------------------

void TidBitmap::Reset(size_t universe) {
  universe_ = universe;
  words_.assign(WordsFor(universe), 0);
}

void TidBitmap::Fill() {
  if (words_.empty()) return;
  std::fill(words_.begin(), words_.end(), ~BitmapWord{0});
  const size_t tail = universe_ % kBitmapWordBits;
  if (tail != 0) {
    words_.back() = (BitmapWord{1} << tail) - 1;
  }
}

void TidBitmap::Set(TransactionId tid) {
  words_[tid / kBitmapWordBits] |= BitmapWord{1} << (tid % kBitmapWordBits);
}

bool TidBitmap::Test(TransactionId tid) const {
  if (static_cast<size_t>(tid) >= universe_) return false;
  return (words_[tid / kBitmapWordBits] >> (tid % kBitmapWordBits)) & 1u;
}

TidBitmap TidBitmap::FromTids(const std::vector<TransactionId>& tids,
                              size_t universe) {
  TidBitmap bm(universe);
  for (TransactionId tid : tids) {
    MARAS_CHECK(static_cast<size_t>(tid) < universe)
        << "tid " << tid << " outside universe " << universe;
    bm.Set(tid);
  }
  return bm;
}

std::vector<TransactionId> TidBitmap::ToTids() const {
  std::vector<TransactionId> out;
  out.reserve(BitmapPopcount(*this));
  ForEachTid([&out](TransactionId tid) { out.push_back(tid); });
  return out;
}

// --- word-kernel entry points ----------------------------------------------

size_t BitmapPopcount(const TidBitmap& a) {
  return ActiveKernels().popcount(a.words(), a.word_count());
}

size_t AndPopcount(const TidBitmap& a, const TidBitmap& b) {
  MARAS_CHECK(a.universe() == b.universe()) << "universe mismatch";
  return ActiveKernels().and_popcount(a.words(), b.words(), a.word_count());
}

size_t And3Popcount(const TidBitmap& a, const TidBitmap& b,
                    const TidBitmap& c) {
  MARAS_CHECK(a.universe() == b.universe() && b.universe() == c.universe())
      << "universe mismatch";
  return ActiveKernels().and3_popcount(a.words(), b.words(), c.words(),
                                       a.word_count());
}

size_t BitmapAnd(const TidBitmap& a, const TidBitmap& b, TidBitmap* out) {
  MARAS_CHECK(a.universe() == b.universe()) << "universe mismatch";
  out->Reset(a.universe());
  return ActiveKernels().and_store(a.words(), b.words(), out->mutable_words(),
                                   a.word_count());
}

size_t BitmapAndInto(TidBitmap* acc, const TidBitmap& b) {
  MARAS_CHECK(acc->universe() == b.universe()) << "universe mismatch";
  // The store kernels read a[i] and b[i] before writing out[i], so `out`
  // may alias `a`.
  return ActiveKernels().and_store(acc->words(), b.words(),
                                   acc->mutable_words(), b.word_count());
}

const char* BitmapKernelBackend() { return ActiveKernels().name; }

}  // namespace maras::mining
