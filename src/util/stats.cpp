#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace rrs {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. parallel-merge formulas.
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  double delta = other.mean_ - mean_;
  double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::ci95_halfwidth() const {
  if (count_ < 2) return 0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count_));
}

std::string RunningStats::ToString() const {
  std::ostringstream os;
  os << "n=" << count_ << " mean=" << mean() << " sd=" << stddev()
     << " min=" << min() << " max=" << max();
  return os.str();
}

}  // namespace rrs
