// Metrics registry: named counters, gauges, and log-linear (HDR-style)
// histograms.
//
// Handles are registered once (a map lookup, cold) and updated through
// stable pointers on the hot path (a single add/store into a cache-line-
// aligned slot — registration heap-allocates each instrument separately so
// two hot instruments never share a line, and a Registry-wide rehash can
// never move a handle out from under a writer).
//
// A Registry is single-writer: engine runs keep a run-local registry (or the
// fixed instrument block in obs::RunInstruments) and fold it into a shared
// aggregate under obs::Scope's mutex at end of run. Nothing here is atomic
// by design — cross-thread aggregation is the Scope's job, which keeps the
// hot-path update a plain increment.
//
// Exports: JSON (machine-readable snapshot) and Prometheus text exposition
// (counters/gauges as-is, histograms as quantile summaries).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/level.h"

namespace rrs {
namespace obs {

// A monotonically increasing count. Aligned to its own cache line so hot
// counters handed out by one registry never false-share.
struct alignas(64) Counter {
  uint64_t value = 0;

  void Add(uint64_t delta = 1) { value += delta; }
};

// A last-write-wins instantaneous value.
struct alignas(64) Gauge {
  double value = 0;

  void Set(double v) { value = v; }
};

// Log-linear histogram over uint64 values (HDR-histogram bucket layout):
// values below 2^4 get exact unit buckets; above that, each power-of-two
// range splits into 8 linear sub-buckets, so relative error is bounded by
// 12.5% across the full 64-bit range at a fixed 496-bucket footprint. Record
// is branch-light (a count-leading-zeros and two shifts) and allocation-free,
// which is what lets the engine keep one per phase on the hot path.
class LogHistogram {
 public:
  static constexpr uint32_t kSubBuckets = 8;   // per power-of-two range
  static constexpr uint32_t kUnitBuckets = 2 * kSubBuckets;  // exact 0..15
  static constexpr uint32_t kNumBuckets =
      kUnitBuckets + (64 - 4) * kSubBuckets;  // 496

  void Record(uint64_t value);
  // Records `value` `count` times in O(1) — what lets end-of-run absorption
  // fold per-color drop totals into a by-delay-class histogram without
  // replaying every dropped job.
  void RecordMany(uint64_t value, uint64_t count);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  // Quantile by linear interpolation inside the containing bucket; q in
  // [0, 1]. Returns 0 for an empty histogram.
  double Quantile(double q) const;

  void Merge(const LogHistogram& other);
  void Reset();

  // Bucket introspection (exports/tests): value range [lo, hi) of bucket i.
  static uint64_t BucketLo(uint32_t i);
  static uint64_t BucketHi(uint32_t i);
  uint64_t bucket_count(uint32_t i) const { return buckets_[i]; }

 private:
  static uint32_t BucketOf(uint64_t value);

  uint64_t buckets_[kNumBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

// Name-keyed instrument store. Lookup by name returns a stable reference for
// the registry's lifetime; repeated lookups of one name return the same
// instrument.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LogHistogram& histogram(std::string_view name);

  // Read-only probes: null when the instrument was never registered.
  const Counter* FindCounter(std::string_view name) const;
  const LogHistogram* FindHistogram(std::string_view name) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  // Folds `other` into this registry: counters add, histograms merge,
  // gauges take the other side's value. Not thread-safe; callers serialize
  // (obs::Scope wraps this in a mutex).
  void MergeFrom(const Registry& other);

  // Counters and gauges flattened to name -> value (histograms excluded).
  std::map<std::string, double> Values() const;

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  // mean, p50, p90, p99, max}}} with names sorted.
  std::string ToJson() const;

  // Prometheus text exposition: counters/gauges verbatim, histograms as
  // summaries (quantile 0.5/0.9/0.99 + _sum/_count). Metric names are
  // prefixed and sanitized to [a-zA-Z0-9_:] (PromMetricName); every metric
  // carries # HELP and # TYPE lines, emitted once per *sanitized* name even
  // when several raw names collapse onto it (duplicate metadata lines are
  // invalid exposition format).
  std::string ToPrometheus(std::string_view prefix = "rrs") const;

 private:
  // unique_ptr storage: handles stay valid across map rehash/insert.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LogHistogram>, std::less<>>
      histograms_;
};

// ---- Prometheus exposition helpers ----------------------------------------
// Shared by Registry::ToPrometheus and every other exposition producer
// (fleet::SloTracker's per-shard section, the export server).

// `prefix_name` with every character outside [a-zA-Z0-9_:] replaced by '_'.
// An empty raw name yields "prefix_" — still a legal metric name, since the
// prefix supplies a legal leading character. Names never need rejection
// outright: the prefix guarantees a sound first character and substitution
// makes the rest legal.
std::string PromMetricName(std::string_view prefix, std::string_view name);

// Escapes a label *value* per the exposition format: backslash, double
// quote, and newline become \\, \", and \n. Everything else (including other
// control characters and UTF-8) passes through verbatim.
std::string PromEscapeLabel(std::string_view value);

}  // namespace obs
}  // namespace rrs
