#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace rrs {
namespace obs {

// ---- LogHistogram ---------------------------------------------------------

uint32_t LogHistogram::BucketOf(uint64_t value) {
  if (value < kUnitBuckets) return static_cast<uint32_t>(value);
  const uint32_t msb = 63u - static_cast<uint32_t>(std::countl_zero(value));
  // Top bit plus the next 3 bits select the sub-bucket within [2^msb,
  // 2^(msb+1)); msb >= 4 here because value >= 16.
  const uint32_t sub =
      static_cast<uint32_t>(value >> (msb - 3)) & (kSubBuckets - 1);
  return kUnitBuckets + (msb - 4) * kSubBuckets + sub;
}

uint64_t LogHistogram::BucketLo(uint32_t i) {
  if (i < kUnitBuckets) return i;
  const uint32_t msb = 4 + (i - kUnitBuckets) / kSubBuckets;
  const uint32_t sub = (i - kUnitBuckets) % kSubBuckets;
  return (uint64_t{1} << msb) + (uint64_t{sub} << (msb - 3));
}

uint64_t LogHistogram::BucketHi(uint32_t i) {
  if (i < kUnitBuckets) return i + 1;
  const uint32_t msb = 4 + (i - kUnitBuckets) / kSubBuckets;
  return BucketLo(i) + (uint64_t{1} << (msb - 3));
}

void LogHistogram::Record(uint64_t value) {
  ++buckets_[BucketOf(value)];
  ++count_;
  sum_ += value;
  max_ = std::max(max_, value);
}

void LogHistogram::RecordMany(uint64_t value, uint64_t count) {
  if (count == 0) return;
  buckets_[BucketOf(value)] += count;
  count_ += count;
  sum_ += value * count;
  max_ = std::max(max_, value);
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based), then walk buckets.
  const double rank = q * static_cast<double>(count_ - 1) + 1.0;
  uint64_t seen = 0;
  for (uint32_t i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const uint64_t next = seen + buckets_[i];
    if (static_cast<double>(next) >= rank) {
      // Interpolate inside the bucket by rank position.
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(buckets_[i]);
      const double lo = static_cast<double>(BucketLo(i));
      const double hi = static_cast<double>(BucketHi(i));
      return std::min(lo + frac * (hi - lo), static_cast<double>(max_));
    }
    seen = next;
  }
  return static_cast<double>(max_);
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (uint32_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void LogHistogram::Reset() {
  // count_ == 0 implies every bucket (and sum_/max_) is already zero: Record
  // bumps count_ with every bucket increment and Merge adds counts in step.
  // Run-scoped instruments Reset per rebind but record only when a scope
  // samples, so the empty case skips the 4 KiB bucket clear.
  if (count_ == 0) return;
  *this = LogHistogram();
}

// ---- Registry -------------------------------------------------------------

namespace {

template <typename Map, typename Value>
Value& Lookup(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<Value>()).first;
  }
  return *it->second;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  return Lookup<decltype(counters_), Counter>(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  return Lookup<decltype(gauges_), Gauge>(gauges_, name);
}

LogHistogram& Registry::histogram(std::string_view name) {
  return Lookup<decltype(histograms_), LogHistogram>(histograms_, name);
}

const Counter* Registry::FindCounter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const LogHistogram* Registry::FindHistogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void Registry::MergeFrom(const Registry& other) {
  for (const auto& [name, c] : other.counters_) counter(name).Add(c->value);
  for (const auto& [name, g] : other.gauges_) gauge(name).Set(g->value);
  for (const auto& [name, h] : other.histograms_) histogram(name).Merge(*h);
}

std::map<std::string, double> Registry::Values() const {
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) {
    out[name] = static_cast<double>(c->value);
  }
  for (const auto& [name, g] : gauges_) out[name] = g->value;
  return out;
}

std::string Registry::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    out += "    \"" + JsonEscape(name) + "\": " + std::to_string(c->value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    out += "    \"" + JsonEscape(name) + "\": " + FormatDouble(g->value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    out += "    \"" + JsonEscape(name) + "\": {\"count\": " +
           std::to_string(h->count()) + ", \"sum\": " + std::to_string(h->sum()) +
           ", \"mean\": " + FormatDouble(h->mean()) +
           ", \"p50\": " + FormatDouble(h->Quantile(0.5)) +
           ", \"p90\": " + FormatDouble(h->Quantile(0.9)) +
           ", \"p99\": " + FormatDouble(h->Quantile(0.99)) +
           ", \"max\": " + std::to_string(h->max()) + "}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

// Emits the `# HELP`/`# TYPE` preamble for `metric` unless an earlier raw
// name already sanitized onto it — the exposition format forbids repeated
// metadata lines for one metric, and sanitization can collapse distinct raw
// names (e.g. "a.b" and "a-b") onto one exposition name.
void EmitMetadata(std::string& out, std::vector<std::string>& emitted,
                  const std::string& metric, std::string_view raw_name,
                  std::string_view type) {
  if (std::find(emitted.begin(), emitted.end(), metric) != emitted.end()) {
    return;
  }
  emitted.push_back(metric);
  out += "# HELP " + metric + " rrs instrument ";
  // HELP text is free-form but newlines/backslashes must be escaped exactly
  // like label values; the raw name may contain either.
  out += PromEscapeLabel(raw_name);
  out += "\n# TYPE " + metric + " " + std::string(type) + "\n";
}

}  // namespace

std::string Registry::ToPrometheus(std::string_view prefix) const {
  std::string out;
  std::vector<std::string> emitted;
  emitted.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    const std::string metric = PromMetricName(prefix, name);
    EmitMetadata(out, emitted, metric, name, "counter");
    out += metric + " " + std::to_string(c->value) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string metric = PromMetricName(prefix, name);
    EmitMetadata(out, emitted, metric, name, "gauge");
    out += metric + " " + FormatDouble(g->value) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string metric = PromMetricName(prefix, name);
    EmitMetadata(out, emitted, metric, name, "summary");
    for (double q : {0.5, 0.9, 0.99}) {
      out += metric + "{quantile=\"" + FormatDouble(q) + "\"} " +
             FormatDouble(h->Quantile(q)) + "\n";
    }
    out += metric + "_sum " + std::to_string(h->sum()) + "\n";
    out += metric + "_count " + std::to_string(h->count()) + "\n";
  }
  return out;
}

// ---- Prometheus exposition helpers ----------------------------------------

std::string PromMetricName(std::string_view prefix, std::string_view name) {
  std::string out;
  out.reserve(prefix.size() + 1 + name.size());
  out.append(prefix);
  out.push_back('_');
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string PromEscapeLabel(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace obs
}  // namespace rrs
