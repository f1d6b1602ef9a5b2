#ifndef MARAS_UTIL_RANDOM_H_
#define MARAS_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace maras {

// Deterministic, seedable pseudo-random number generator
// (xoshiro256** seeded via SplitMix64). All randomness in the library —
// synthetic data generation, user-study simulation, benchmark workloads —
// flows through Rng so every experiment is exactly reproducible from a seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  // Uniform over all 64-bit values.
  uint64_t Next();

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Standard normal via Box–Muller.
  double Gaussian();

  // Poisson-distributed count with the given mean (Knuth's method for small
  // lambda, normal approximation above 64).
  int Poisson(double mean);

  // Zipf-distributed rank in [0, n) with exponent s, favoring small ranks.
  // Uses an inverse-CDF table owned by the caller; see ZipfTable.
  // (Free function below.)

  // Fisher–Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Uniform(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
};

// Precomputed inverse-CDF sampler for a Zipf(s) distribution over n ranks.
// Sampling is O(log n) via binary search over the cumulative weights.
class ZipfTable {
 public:
  // n must be >= 1; s >= 0 (s == 0 is uniform).
  ZipfTable(size_t n, double s);

  // Returns a rank in [0, n); rank 0 is the most likely.
  size_t Sample(Rng* rng) const;

  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace maras

#endif  // MARAS_UTIL_RANDOM_H_
