// Streaming summary statistics and sample sets for experiment reporting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rrs {

// Welford's online algorithm: numerically stable running mean/variance,
// plus min/max. O(1) per observation, no sample storage.
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return count_ ? mean_ * static_cast<double>(count_) : 0.0; }

  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;

  // Half-width of the ~95% normal-approximation confidence interval on the
  // mean (1.96 * stderr); 0 for fewer than two samples.
  double ci95_halfwidth() const;

  std::string ToString() const;

 private:
  size_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Stores all samples; supports exact quantiles. Used where sample counts are
// modest (per-experiment distributions), not in hot loops.
class SampleSet {
 public:
  void Add(double x);
  void Reserve(size_t n) { samples_.reserve(n); }

  size_t count() const { return samples_.size(); }
  double mean() const;
  double min() const;
  double max() const;

  // Exact quantile by linear interpolation between order statistics;
  // q in [0, 1]. Requires at least one sample.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace rrs
