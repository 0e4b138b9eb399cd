#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace rrs {

namespace {

// Means at or above this split before drawing (Rng::Poisson).
constexpr double kPoissonSplitMean = 30;

}  // namespace

PoissonMean::PoissonMean(double mean)
    : mean_(mean),
      limit_(mean > 0 && mean < kPoissonSplitMean ? std::exp(-mean) : 0) {}

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.Next();
  // An all-zero state is the one fixed point of xoshiro; SplitMix64 cannot
  // produce four consecutive zeros from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  RRS_CHECK_GT(bound, 0u);
  // Lemire's method: multiply-shift with rejection of the biased low range.
  __uint128_t m = static_cast<__uint128_t>(Next()) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = -bound % bound;
    while (low < threshold) {
      m = static_cast<__uint128_t>(Next()) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

uint64_t Rng::Poisson(double mean) {
  RRS_CHECK_GE(mean, 0.0);
  if (mean == 0) return 0;
  if (mean < kPoissonSplitMean) return PoissonKnuth(std::exp(-mean));
  const double half = mean / 2;
  return Poisson(half) + Poisson(mean - half);
}

Rng Rng::Fork() {
  // Jump-free forking: derive a child seed from two outputs. Streams are
  // statistically independent for experiment purposes.
  uint64_t a = Next();
  uint64_t b = Next();
  return Rng(a ^ std::rotl(b, 29) ^ 0x9e3779b97f4a7c15ULL);
}

void Rng::LoadState(const std::array<uint64_t, 4>& s) {
  RRS_CHECK((s[0] | s[1] | s[2] | s[3]) != 0)
      << "all-zero xoshiro state restored: no seed produces it, and it "
         "draws 0 forever";
  s_[0] = s[0];
  s_[1] = s[1];
  s_[2] = s[2];
  s_[3] = s[3];
}

ZipfDistribution::ZipfDistribution(size_t n, double exponent)
    : exponent_(exponent) {
  RRS_CHECK_GT(n, 0u);
  RRS_CHECK_GE(exponent, 0.0);
  cdf_.resize(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against accumulated rounding
}

size_t ZipfDistribution::Sample(Rng& rng) const {
  double u = rng.UniformDouble();
  size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] <= u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double ZipfDistribution::Pmf(size_t i) const {
  RRS_CHECK_LT(i, cdf_.size());
  return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

}  // namespace rrs
