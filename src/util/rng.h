// Deterministic pseudo-random number generation for rrsched.
//
// All randomness in workload generation, experiments, and property tests
// flows through Rng (xoshiro256** seeded via SplitMix64), so every run is
// reproducible from a 64-bit seed. Rng satisfies the C++ UniformRandomBitGenerator
// requirements and can therefore be used with <random> distributions, but the
// distributions needed by the workload generators (uniform, Bernoulli,
// Poisson, Zipf) are provided here directly with stable cross-platform
// behavior (std:: distributions are not guaranteed to produce identical
// streams across standard libraries).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace rrs {

// SplitMix64: used to expand a single 64-bit seed into the xoshiro state.
// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
// generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// A Poisson mean with Knuth's limit std::exp(-mean) computed once, for
// generators that draw the same mean round after round (the streaming
// sources in workload/source.h keep one per color). Rng::Poisson(const
// PoissonMean&) returns exactly what Rng::Poisson(mean()) returns, from the
// same uniforms, without the per-draw std::exp. It is configuration derived
// from options, never generator state: nothing saves or ships it.
class PoissonMean {
 public:
  explicit PoissonMean(double mean);

  double mean() const { return mean_; }
  // std::exp(-mean) for 0 < mean < 30, the one-product-loop range; 0 for a
  // zero mean (no uniform drawn) and for means that split.
  double limit() const { return limit_; }

 private:
  double mean_;
  double limit_;
};

// xoshiro256**: fast, high-quality 64-bit generator (Blackman & Vigna).
// Next, UniformDouble, Bernoulli and the precomputed-limit Poisson draw are
// header-inline: a streaming source's per-color draw loop makes no call per
// uniform.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x5eed5eed5eedULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  // Raw 64 random bits.
  uint64_t Next() {
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }
  result_type operator()() { return Next(); }

  // Uniform integer in [0, bound), bound > 0. Uses Lemire's nearly-divisionless
  // rejection method for unbiased results.
  uint64_t NextBounded(uint64_t bound);

  // Uniform double in [0, 1): 53 random bits.
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0) return false;
    if (p >= 1) return true;
    return UniformDouble() < p;
  }

  // Poisson-distributed count with the given mean (>= 0). Means below 30 run
  // Knuth's product method against std::exp(-mean); larger means split
  // recursively into halves (Poisson(a + b) is Poisson(a) + Poisson(b)) so
  // every piece stays in the product method's numerically stable range. A
  // zero mean draws no uniform.
  uint64_t Poisson(double mean);

  // Poisson(m.mean()) with the limit precomputed: the same count from the
  // same uniforms.
  uint64_t Poisson(const PoissonMean& m) {
    if (m.limit() > 0) return PoissonKnuth(m.limit());
    return Poisson(m.mean());
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Derives an independent child generator; useful for giving each parallel
  // sweep task its own deterministic stream.
  Rng Fork();

  // Raw generator state, for checkpoint/restore (snapshot/codec.h). A
  // restored Rng continues the exact stream of the saved one, so a restored
  // tenant replays the identical arrival future. LoadState rejects the
  // all-zero state, xoshiro's fixed point, which no seed produces.
  std::array<uint64_t, 4> SaveState() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void LoadState(const std::array<uint64_t, 4>& s);

 private:
  // Knuth's product method against limit = std::exp(-mean): the number of
  // uniforms after the first that the running product takes to fall to the
  // limit.
  uint64_t PoissonKnuth(double limit) {
    double prod = UniformDouble();
    uint64_t count = 0;
    while (prod > limit) {
      prod *= UniformDouble();
      ++count;
    }
    return count;
  }

  uint64_t s_[4];
};

// Zipf(s, n) sampler over {0, 1, ..., n-1} with exponent s >= 0 (s = 0 is
// uniform). Precomputes the CDF once; sampling is O(log n) via binary search.
// Used to model skewed color popularity in synthetic workloads.
class ZipfDistribution {
 public:
  ZipfDistribution(size_t n, double exponent);

  size_t Sample(Rng& rng) const;
  size_t size() const { return cdf_.size(); }
  double exponent() const { return exponent_; }

  // Probability mass of rank i (for tests).
  double Pmf(size_t i) const;

 private:
  std::vector<double> cdf_;
  double exponent_;
};

}  // namespace rrs
