// Streaming summary statistics for experiment reporting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

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

}  // namespace rrs
