// Tests for the observability subsystem (src/obs/): metrics registry and
// log-linear histograms, the ring-buffer tracer and its Chrome trace_event
// exporter (golden round-trip through a line-based parser), engine/scope
// telemetry wiring across all three engines, concurrent Scope absorption,
// and the TimelinePolicy CSV export round-trip.
//
// This file is also the sanitizer suite: with -DRRS_SANITIZE=ON it is
// rebuilt against an ASan+UBSan library copy (ctest -L sanitize), so the
// concurrency-sensitive pieces (per-thread trace tracks, Scope::Absorb under
// contention) are exercised here on purpose.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/sweep.h"
#include "analysis/timeline.h"
#include "core/engine.h"
#include "core/reference_engine.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "sched/dlru_edf.h"
#include "sched/invariant_checker.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

Instance ObsWorkload(uint64_t seed, Round rounds = 256) {
  std::vector<workload::ColorSpec> specs = {
      {1, 0.5}, {2, 0.6}, {4, 0.6}, {8, 0.4}, {16, 0.3}, {32, 0.2}};
  workload::PoissonOptions gen;
  gen.rounds = rounds;
  gen.rate_limited = true;
  gen.seed = seed;
  return MakePoisson(specs, gen);
}

// ---- LogHistogram ---------------------------------------------------------

TEST(LogHistogram, SmallValuesAreExact) {
  obs::LogHistogram h;
  for (uint64_t v = 0; v < 16; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.sum(), 120u);
  EXPECT_EQ(h.max(), 15u);
  for (uint32_t i = 0; i < 16; ++i) EXPECT_EQ(h.bucket_count(i), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 7.5);
}

TEST(LogHistogram, SingleValueQuantileIsExactAcrossMagnitudes) {
  for (uint64_t v : {7ull, 100ull, 5000ull, 123456ull, 99999999ull}) {
    obs::LogHistogram h;
    h.Record(v);
    // Interpolation clamps to max, so a single sample round-trips exactly.
    EXPECT_DOUBLE_EQ(h.Quantile(0.5), static_cast<double>(v)) << v;
    EXPECT_DOUBLE_EQ(h.Quantile(0.99), static_cast<double>(v)) << v;
  }
}

TEST(LogHistogram, RelativeErrorBounded) {
  // Any value lands in a bucket whose width is at most 12.5% of its lower
  // bound (8 linear sub-buckets per power of two).
  for (uint64_t v = 16; v < (1ull << 20); v = v * 3 + 1) {
    obs::LogHistogram h;
    h.Record(v);
    h.Record(v);  // two samples so interpolation does not clamp to max
    const double p0 = h.Quantile(0.0);
    EXPECT_LE(p0, static_cast<double>(v)) << v;
    EXPECT_GE(p0, static_cast<double>(v) * 0.875) << v;
  }
}

TEST(LogHistogram, QuantilesAreMonotoneAndOrdered) {
  obs::LogHistogram h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);  // empty
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  double prev = 0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const double val = h.Quantile(q);
    EXPECT_GE(val, prev);
    prev = val;
  }
  EXPECT_NEAR(h.Quantile(0.5), 500.0, 500.0 * 0.125);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0);
}

TEST(LogHistogram, RecordManyMatchesRepeatedRecord) {
  obs::LogHistogram many, loop;
  const std::pair<uint64_t, uint64_t> samples[] = {
      {0, 3}, {7, 1}, {100, 50}, {(1ull << 33) + 9, 4}, {12, 0}};
  for (const auto& [value, count] : samples) {
    many.RecordMany(value, count);
    for (uint64_t i = 0; i < count; ++i) loop.Record(value);
  }
  EXPECT_EQ(many.count(), loop.count());
  EXPECT_EQ(many.sum(), loop.sum());
  EXPECT_EQ(many.max(), loop.max());
  for (uint32_t i = 0; i < obs::LogHistogram::kNumBuckets; ++i) {
    ASSERT_EQ(many.bucket_count(i), loop.bucket_count(i)) << i;
  }
  EXPECT_DOUBLE_EQ(many.Quantile(0.5), loop.Quantile(0.5));
}

TEST(LogHistogram, ResetOnEmptyIsANoOpAndKeepsInvariants) {
  // The empty fast-path (count_ == 0 skips the bucket clear) must leave an
  // untouched histogram indistinguishable from a freshly constructed one —
  // including after Merge added zero counts, which must not break the
  // "count_ == 0 implies all buckets zero" invariant the fast-path relies on.
  obs::LogHistogram h, empty;
  h.Reset();
  h.Merge(empty);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  for (uint32_t i = 0; i < obs::LogHistogram::kNumBuckets; ++i) {
    ASSERT_EQ(h.bucket_count(i), 0u) << i;
  }
  // And the fast-path does not leak stale state through a record/reset/record
  // cycle: reset-after-record clears, second reset is the empty path.
  h.Record(42);
  h.Reset();
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  h.Record(3);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 3u);
}

TEST(LogHistogram, MergeAndReset) {
  obs::LogHistogram a, b;
  a.Record(3);
  a.Record(100);
  b.Record(7);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 110u);
  EXPECT_EQ(a.max(), 100u);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.max(), 0u);
}

TEST(LogHistogram, BucketBoundsContainTheirValues) {
  for (uint64_t v : {0ull, 1ull, 15ull, 16ull, 17ull, 1023ull, 1024ull,
                     (1ull << 40) + 12345ull}) {
    obs::LogHistogram h;
    h.Record(v);
    // Find the unique populated bucket and check [lo, hi) contains v.
    for (uint32_t i = 0; i < obs::LogHistogram::kNumBuckets; ++i) {
      if (h.bucket_count(i) == 0) continue;
      EXPECT_GE(v, obs::LogHistogram::BucketLo(i)) << v;
      EXPECT_LT(v, obs::LogHistogram::BucketHi(i)) << v;
    }
  }
}

// ---- Registry -------------------------------------------------------------

TEST(Registry, HandlesAreStableAcrossInserts) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("first");
  for (int i = 0; i < 100; ++i) {
    reg.counter("other" + std::to_string(i)).Add(1);
  }
  EXPECT_EQ(&reg.counter("first"), &c);
  c.Add(3);
  EXPECT_EQ(reg.FindCounter("first")->value, 3u);
  EXPECT_EQ(reg.FindCounter("never"), nullptr);
  EXPECT_EQ(reg.FindHistogram("never"), nullptr);
}

TEST(Registry, ValuesFlattensCountersAndGauges) {
  obs::Registry reg;
  reg.counter("a").Add(2);
  reg.gauge("b").Set(1.5);
  reg.histogram("h").Record(10);  // histograms are excluded from Values()
  auto values = reg.Values();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values["a"], 2.0);
  EXPECT_DOUBLE_EQ(values["b"], 1.5);
}

TEST(Registry, MergeFromAddsAndMerges) {
  obs::Registry a, b;
  a.counter("hits").Add(1);
  b.counter("hits").Add(4);
  b.gauge("level").Set(2.0);
  b.histogram("lat").Record(100);
  a.MergeFrom(b);
  EXPECT_EQ(a.FindCounter("hits")->value, 5u);
  EXPECT_DOUBLE_EQ(a.Values()["level"], 2.0);
  ASSERT_NE(a.FindHistogram("lat"), nullptr);
  EXPECT_EQ(a.FindHistogram("lat")->count(), 1u);
}

TEST(Registry, JsonExportContainsAllSections) {
  obs::Registry reg;
  reg.counter("engine.drops").Add(7);
  reg.gauge("load").Set(0.5);
  reg.histogram("engine.phase.drop.ns").Record(1000);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.drops\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

TEST(Registry, PrometheusExportSanitizesNames) {
  obs::Registry reg;
  reg.counter("engine.drops.color3").Add(9);
  reg.histogram("phase.ns").Record(64);
  const std::string prom = reg.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE rrs_engine_drops_color3 counter"),
            std::string::npos);
  EXPECT_NE(prom.find("rrs_engine_drops_color3 9"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE rrs_phase_ns summary"), std::string::npos);
  EXPECT_NE(prom.find("rrs_phase_ns{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(prom.find("rrs_phase_ns_count 1"), std::string::npos);
  // No unsanitized dots anywhere in metric names.
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE", 0) == 0) continue;
    const std::string name = line.substr(0, line.find_first_of(" {"));
    EXPECT_EQ(name.find('.'), std::string::npos) << line;
  }
}

TEST(Registry, PrometheusAdversarialNamesStayLegal) {
  obs::Registry reg;
  reg.counter("bad\"quote").Add(1);
  reg.counter("line\nbreak").Add(2);
  reg.counter("back\\slash").Add(3);
  reg.counter("").Add(4);  // empty raw name: the prefix carries the metric
  reg.gauge("späce and ütf8").Set(1.0);
  const std::string prom = reg.ToPrometheus();
  // Every non-comment line is `name[{labels}] value` with a legal name.
  std::istringstream lines(prom);
  std::string line;
  size_t sample_lines = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("# ", 0) == 0) continue;
    ASSERT_FALSE(line.empty());
    const std::string name = line.substr(0, line.find_first_of(" {"));
    ASSERT_FALSE(name.empty()) << line;
    for (char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      EXPECT_TRUE(ok) << "illegal char in metric name: " << line;
    }
    ++sample_lines;
  }
  EXPECT_EQ(sample_lines, 5u);
  EXPECT_NE(prom.find("rrs_bad_quote 1"), std::string::npos);
  EXPECT_NE(prom.find("rrs_line_break 2"), std::string::npos);
  EXPECT_NE(prom.find("rrs_back_slash 3"), std::string::npos);
  EXPECT_NE(prom.find("\nrrs_ 4"), std::string::npos);
}

TEST(Registry, PrometheusMetadataEmittedOncePerSanitizedName) {
  obs::Registry reg;
  // Three raw names collapsing onto one sanitized name.
  reg.counter("a.b").Add(1);
  reg.counter("a-b").Add(2);
  reg.counter("a b").Add(3);
  reg.counter("distinct").Add(9);
  const std::string prom = reg.ToPrometheus();
  auto count_of = [&](const std::string& needle) {
    size_t n = 0;
    for (size_t at = prom.find(needle); at != std::string::npos;
         at = prom.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count_of("# TYPE rrs_a_b counter\n"), 1u);
  EXPECT_EQ(count_of("# HELP rrs_a_b "), 1u);
  EXPECT_EQ(count_of("# TYPE rrs_distinct counter\n"), 1u);
  EXPECT_EQ(count_of("# HELP rrs_distinct "), 1u);
  // All three collapsed samples still appear.
  EXPECT_NE(prom.find("rrs_a_b 1"), std::string::npos);
  EXPECT_NE(prom.find("rrs_a_b 2"), std::string::npos);
  EXPECT_NE(prom.find("rrs_a_b 3"), std::string::npos);
}

TEST(Registry, PrometheusEveryMetricHasHelpAndType) {
  obs::Registry reg;
  reg.counter("c").Add(1);
  reg.gauge("g").Set(2.5);
  reg.histogram("h").Record(10);
  const std::string prom = reg.ToPrometheus();
  for (const char* needle :
       {"# HELP rrs_c ", "# TYPE rrs_c counter", "# HELP rrs_g ",
        "# TYPE rrs_g gauge", "# HELP rrs_h ", "# TYPE rrs_h summary"}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;
  }
}

TEST(PromHelpers, EscapeLabelHandlesSpecials) {
  EXPECT_EQ(obs::PromEscapeLabel("plain"), "plain");
  EXPECT_EQ(obs::PromEscapeLabel("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::PromEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::PromEscapeLabel("a\nb"), "a\\nb");
  EXPECT_EQ(obs::PromEscapeLabel("\\\"\n"), "\\\\\\\"\\n");
  EXPECT_EQ(obs::PromEscapeLabel(""), "");
}

TEST(PromHelpers, MetricNameSanitizes) {
  EXPECT_EQ(obs::PromMetricName("rrs", "fleet.slo.misses"),
            "rrs_fleet_slo_misses");
  EXPECT_EQ(obs::PromMetricName("rrs", "ok_name:sub"), "rrs_ok_name:sub");
  EXPECT_EQ(obs::PromMetricName("rrs", "\"\n\\"), "rrs____");
  EXPECT_EQ(obs::PromMetricName("rrs", ""), "rrs_");
}

// ---- Scope generic absorption under contention (sanitize/tsan target) -----

TEST(ScopeConcurrency, AbsorbCountersAndHistogramFromEightThreads) {
  obs::Scope scope;
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&scope, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::pair<std::string_view, uint64_t> deltas[] = {
            {"stress.shared", 1},
            {t % 2 == 0 ? "stress.even" : "stress.odd", 2},
        };
        scope.AbsorbCounters(deltas);
        obs::LogHistogram h;
        h.Record(static_cast<uint64_t>(t * kIters + i));
        scope.AbsorbHistogram("stress.hist", h);
        scope.AbsorbGauge("stress.gauge", static_cast<double>(t));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(scope.registry().FindCounter("stress.shared")->value,
            static_cast<uint64_t>(kThreads * kIters));
  EXPECT_EQ(scope.registry().FindCounter("stress.even")->value,
            static_cast<uint64_t>(4 * kIters * 2));
  EXPECT_EQ(scope.registry().FindCounter("stress.odd")->value,
            static_cast<uint64_t>(4 * kIters * 2));
  ASSERT_NE(scope.registry().FindHistogram("stress.hist"), nullptr);
  EXPECT_EQ(scope.registry().FindHistogram("stress.hist")->count(),
            static_cast<uint64_t>(kThreads * kIters));
  // The gauge holds whichever thread wrote last — any valid thread index.
  const double gauge = scope.registry().Values()["stress.gauge"];
  EXPECT_GE(gauge, 0.0);
  EXPECT_LT(gauge, static_cast<double>(kThreads));
  // Locked render helpers see a consistent aggregate.
  const std::string prom = scope.RenderPrometheus();
  EXPECT_NE(prom.find("rrs_stress_shared 1600"), std::string::npos);
  EXPECT_NE(scope.RenderJson().find("\"stress.hist\""), std::string::npos);
}

// ---- Tracer ---------------------------------------------------------------

TEST(Tracer, RegisterEmitAndCount) {
  obs::Tracer tracer;
  obs::TraceTrack* t = tracer.RegisterTrack("engine/drop");
  EXPECT_EQ(tracer.num_tracks(), 1u);
  const uint64_t epoch = tracer.epoch_ns();
  tracer.Emit(t, "drop", epoch + 100, 50, /*arg=*/3);
  EXPECT_EQ(t->emitted(), 1u);
  EXPECT_EQ(t->dropped(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
  EXPECT_EQ(t->name(), "engine/drop");
}

TEST(Tracer, RingOverflowDropsOldestAndCounts) {
  obs::Tracer::Options options;
  options.events_per_track = 4;
  obs::Tracer tracer(options);
  obs::TraceTrack* t = tracer.RegisterTrack("tiny");
  const uint64_t epoch = tracer.epoch_ns();
  for (uint64_t i = 0; i < 10; ++i) {
    tracer.Emit(t, "e", epoch + i * 1000, 10, i);
  }
  EXPECT_EQ(t->emitted(), 10u);
  EXPECT_EQ(tracer.dropped_events(), 6u);
  // Export holds only the newest 4 events: rounds 6..9, oldest first.
  const std::string json = tracer.ToChromeJson();
  for (uint64_t round : {0ull, 5ull}) {
    EXPECT_EQ(json.find("{\"round\":" + std::to_string(round) + "}"),
              std::string::npos);
  }
  size_t prev = 0;
  for (uint64_t round : {6ull, 7ull, 8ull, 9ull}) {
    const size_t at =
        json.find("{\"round\":" + std::to_string(round) + "}");
    ASSERT_NE(at, std::string::npos) << round;
    EXPECT_GT(at, prev);  // oldest-first ordering in the export
    prev = at;
  }
}

TEST(Tracer, ThreadTracksAreDistinctPerThread) {
  obs::Tracer tracer;
  obs::TraceTrack* main_track = tracer.ThreadTrack();
  EXPECT_EQ(tracer.ThreadTrack(), main_track);  // cached
  obs::TraceTrack* other_track = nullptr;
  std::thread other([&] { other_track = tracer.ThreadTrack(); });
  other.join();
  ASSERT_NE(other_track, nullptr);
  EXPECT_NE(other_track, main_track);
  EXPECT_EQ(tracer.num_tracks(), 2u);
  EXPECT_NE(main_track->name(), other_track->name());
  EXPECT_EQ(main_track->name().rfind("thread-", 0), 0u);
}

TEST(Tracer, ThreadTrackCacheMissesATracerAtAReusedAddress) {
  // A tracer built in a destroyed tracer's storage must register its own
  // thread track, not hand back the one that died with the old tracer.
  alignas(obs::Tracer) unsigned char storage[sizeof(obs::Tracer)];
  obs::Tracer* first = new (storage) obs::Tracer();
  ASSERT_NE(first->ThreadTrack(), nullptr);
  first->~Tracer();
  obs::Tracer* second = new (storage) obs::Tracer();
  second->ThreadTrack();
  EXPECT_EQ(second->num_tracks(), 1u);
  second->~Tracer();
}

// ---- Chrome trace_event export: golden round-trip -------------------------

// Minimal line-based parser for the exporter's one-event-per-line JSON.
struct ChromeEvent {
  std::string name;
  std::string ph;
  int tid = -1;
  double ts = -1;
  double dur = -1;
  long long round = -1;
  std::string thread_name;  // for "M" metadata events
};

std::string FindStringField(const std::string& line, const std::string& key) {
  const std::string marker = "\"" + key + "\":\"";
  const size_t at = line.find(marker);
  if (at == std::string::npos) return "";
  const size_t start = at + marker.size();
  return line.substr(start, line.find('"', start) - start);
}

double FindNumberField(const std::string& line, const std::string& key) {
  const std::string marker = "\"" + key + "\":";
  const size_t at = line.find(marker);
  if (at == std::string::npos) return -1;
  return std::stod(line.substr(at + marker.size()));
}

std::vector<ChromeEvent> ParseChromeTrace(const std::string& json) {
  std::vector<ChromeEvent> events;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\":") == std::string::npos) continue;
    ChromeEvent e;
    e.name = FindStringField(line, "name");
    e.ph = FindStringField(line, "ph");
    e.tid = static_cast<int>(FindNumberField(line, "tid"));
    e.ts = FindNumberField(line, "ts");
    e.dur = FindNumberField(line, "dur");
    e.round = static_cast<long long>(FindNumberField(line, "round"));
    if (e.ph == "M") {
      // {"name":"thread_name",...,"args":{"name":"<track>"}} — the second
      // "name" is the track's; grab the last occurrence.
      const size_t args = line.find("\"args\"");
      if (args != std::string::npos) {
        e.thread_name = FindStringField(line.substr(args), "name");
      }
    }
    events.push_back(e);
  }
  return events;
}

TEST(ChromeTrace, SyntheticRoundTripPreservesEventsAndTracks) {
  obs::Tracer tracer;
  obs::TraceTrack* drop = tracer.RegisterTrack("run0/engine/drop");
  obs::TraceTrack* exec = tracer.RegisterTrack("run0/engine/execute");
  const uint64_t epoch = tracer.epoch_ns();
  // Two rounds, phases strictly ordered and non-overlapping within a round.
  tracer.Emit(drop, "drop", epoch + 1000, 100, 0);
  tracer.Emit(exec, "execute", epoch + 1200, 300, 0);
  tracer.Emit(drop, "drop", epoch + 2000, 80, 1);
  tracer.Emit(exec, "execute", epoch + 2100, 250, 1);

  const auto events = ParseChromeTrace(tracer.ToChromeJson());

  std::map<std::string, int> track_tids;  // thread_name metadata -> tid
  std::vector<ChromeEvent> complete;
  for (const auto& e : events) {
    if (e.ph == "M" && e.name == "thread_name") {
      track_tids[e.thread_name] = e.tid;
    } else if (e.ph == "X") {
      complete.push_back(e);
    }
  }
  ASSERT_EQ(track_tids.size(), 2u);
  ASSERT_EQ(complete.size(), 4u);
  EXPECT_TRUE(track_tids.count("run0/engine/drop"));
  EXPECT_TRUE(track_tids.count("run0/engine/execute"));
  EXPECT_NE(track_tids["run0/engine/drop"], track_tids["run0/engine/execute"]);

  // Per-round nesting: drop completes before execute starts (ts in µs).
  for (long long round : {0, 1}) {
    const ChromeEvent* d = nullptr;
    const ChromeEvent* x = nullptr;
    for (const auto& e : complete) {
      if (e.round != round) continue;
      (e.name == "drop" ? d : x) = &e;
    }
    ASSERT_NE(d, nullptr);
    ASSERT_NE(x, nullptr);
    EXPECT_EQ(d->tid, track_tids["run0/engine/drop"]);
    EXPECT_LE(d->ts + d->dur, x->ts + 1e-9);
  }
  // ts values are relative to the tracer epoch: first event at 1.0 µs.
  EXPECT_NEAR(complete[0].ts, 1.0, 1e-6);
  EXPECT_NEAR(complete[0].dur, 0.1, 1e-6);
}

#if RRS_OBS_LEVEL >= 1

TEST(ChromeTrace, EngineRunExportsOrderedPhaseTracks) {
  obs::Tracer tracer;
  obs::Scope::Options scope_options;
  scope_options.tracer = &tracer;
  obs::Scope scope(scope_options);

  Instance instance = ObsWorkload(17, /*rounds=*/64);
  DlruEdfPolicy policy;
  EngineOptions options;
  options.num_resources = 4;
  options.cost_model.delta = 2;
  options.obs_scope = &scope;
  RunResult r = RunPolicy(instance, policy, options);

  const auto events = ParseChromeTrace(tracer.ToChromeJson());
  std::map<int, std::string> tid_names;
  std::map<long long, std::map<std::string, double>> phase_start_by_round;
  size_t complete_events = 0;
  for (const auto& e : events) {
    if (e.ph == "M" && e.name == "thread_name") tid_names[e.tid] = e.thread_name;
    if (e.ph != "X" || e.name == "recolor") continue;
    ++complete_events;
    phase_start_by_round[e.round][e.name] = e.ts;
  }
  // One track per engine phase, named run<id>/engine/<phase>.
  std::set<std::string> names;
  for (const auto& [tid, name] : tid_names) names.insert(name);
  for (const char* phase : {"drop", "arrival", "reconfig", "execute"}) {
    EXPECT_TRUE(names.count(std::string("run0/engine/") + phase)) << phase;
  }
  // With a tracer attached every round is sampled: 4 events per round.
  EXPECT_EQ(complete_events,
            static_cast<size_t>(r.rounds_simulated) * obs::kNumPhases);
  // Model phase order holds within every round.
  for (const auto& [round, starts] : phase_start_by_round) {
    ASSERT_EQ(starts.size(), 4u) << "round " << round;
    EXPECT_LE(starts.at("drop"), starts.at("arrival")) << round;
    EXPECT_LE(starts.at("arrival"), starts.at("reconfig")) << round;
    EXPECT_LE(starts.at("reconfig"), starts.at("execute")) << round;
  }
}

TEST(ChromeTrace, WriteChromeJsonRoundTripsThroughDisk) {
  obs::Tracer tracer;
  obs::TraceTrack* t = tracer.RegisterTrack("t0");
  tracer.Emit(t, "e", tracer.epoch_ns() + 10, 5, 0);
  const std::string path = ::testing::TempDir() + "obs_trace_roundtrip.json";
  ASSERT_TRUE(tracer.WriteChromeJson(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), tracer.ToChromeJson());
  std::remove(path.c_str());
}

// ---- Engine/scope wiring --------------------------------------------------

TEST(EngineTelemetry, MatchesCostAcrossAllEngines) {
  Instance instance = ObsWorkload(23);
  EngineOptions options;
  options.num_resources = 6;
  options.cost_model.delta = 3;
  obs::Scope scope;
  options.obs_scope = &scope;

  uint64_t arrived = 0;
  for (int which = 0; which < 2; ++which) {
    DlruEdfPolicy policy;
    RunResult r = which == 0 ? RunPolicy(instance, policy, options)
                             : RunPolicyReference(instance, policy, options);
    const obs::Telemetry& t = r.telemetry;
    uint64_t drops_sum = 0;
    for (uint64_t d : r.drops_per_color) drops_sum += d;
    EXPECT_EQ(drops_sum, r.cost.drops);
    uint64_t reconf_sum = 0;
    for (uint64_t c : t.reconfigs_per_color) reconf_sum += c;
    // Recolorings to black are excluded from the per-color counts.
    EXPECT_LE(reconf_sum, r.cost.reconfigurations);
    EXPECT_GT(t.counters.size(), 0u);  // ExportMetrics snapshot present
    EXPECT_TRUE(t.counters.count("num_epochs"));
    arrived += r.arrived;
  }
  // Both runs were absorbed into the shared scope, figures read from the
  // RunResult.
  EXPECT_EQ(scope.runs_absorbed(), 2u);
  ASSERT_NE(scope.registry().FindCounter("engine.runs"), nullptr);
  EXPECT_EQ(scope.registry().FindCounter("engine.runs")->value, 2u);
  ASSERT_NE(scope.registry().FindCounter("engine.arrived"), nullptr);
  EXPECT_EQ(scope.registry().FindCounter("engine.arrived")->value, arrived);
}

TEST(EngineTelemetry, PhaseHistogramsPopulateAndSummarize) {
  Instance instance = ObsWorkload(31, /*rounds=*/512);
  DlruEdfPolicy policy;
  obs::Scope scope;  // metrics only: rounds are sampled every 32
  EngineOptions options;
  options.num_resources = 4;
  options.cost_model.delta = 2;
  options.obs_scope = &scope;
  RunResult r = RunPolicy(instance, policy, options);

  uint64_t total_samples = 0;
  for (int p = 0; p < obs::kNumPhases; ++p) {
    const obs::PhaseStat& stat = r.telemetry.phase[p];
    total_samples += stat.samples;
    if (stat.samples > 0) {
      EXPECT_LE(stat.p50_ns, stat.p99_ns + 1e-9) << obs::PhaseName(p);
      EXPECT_GE(static_cast<double>(stat.max_ns), stat.p99_ns * 0.875)
          << obs::PhaseName(p);
    }
  }
  // 512 rounds at sample shift 5 -> 16+ samples per phase.
  EXPECT_GE(total_samples, 4u * 16u);
  const obs::LogHistogram* hist =
      scope.registry().FindHistogram("engine.phase.drop.ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), r.telemetry.phase[obs::kPhaseDrop].samples);
}

TEST(EngineTelemetry, GlobalScopeIsUsedWhenNoExplicitScope) {
  obs::Scope scope;
  obs::SetGlobalScope(&scope);
  Instance instance = ObsWorkload(5, /*rounds=*/64);
  DlruEdfPolicy policy;
  EngineOptions options;  // no obs_scope set
  options.num_resources = 4;
  RunPolicy(instance, policy, options);
  obs::SetGlobalScope(nullptr);
  EXPECT_EQ(scope.runs_absorbed(), 1u);
  // Runs after the global scope is cleared do not touch it.
  RunPolicy(instance, policy, options);
  EXPECT_EQ(scope.runs_absorbed(), 1u);
}

// ---- Concurrency: shared scope + per-thread tracks (sanitizer target) -----

TEST(ScopeConcurrency, ParallelRunsAbsorbWithoutLoss) {
  obs::Tracer tracer;
  obs::Scope::Options scope_options;
  scope_options.tracer = &tracer;
  obs::Scope scope(scope_options);

  constexpr int kRuns = 24;
  std::vector<uint64_t> drops(kRuns, 0);
  ParallelFor(GlobalThreadPool(), 0, kRuns, [&](int64_t i) {
    obs::Span span(&tracer, tracer.ThreadTrack(), "obs-test-run",
                   static_cast<uint64_t>(i));
    Instance instance = ObsWorkload(100 + static_cast<uint64_t>(i),
                                    /*rounds=*/96);
    DlruEdfPolicy policy;
    EngineOptions options;
    options.num_resources = 4;
    options.cost_model.delta = 2;
    options.obs_scope = &scope;
    RunResult r = RunPolicy(instance, policy, options);
    drops[static_cast<size_t>(i)] = r.cost.drops;
  });

  EXPECT_EQ(scope.runs_absorbed(), static_cast<uint64_t>(kRuns));
  uint64_t total_drops = 0;
  for (uint64_t d : drops) total_drops += d;
  ASSERT_NE(scope.registry().FindCounter("engine.drops"), nullptr);
  EXPECT_EQ(scope.registry().FindCounter("engine.drops")->value, total_drops);
  // Every run registered its 4 phase tracks; workers added thread tracks.
  EXPECT_GE(tracer.num_tracks(), static_cast<size_t>(kRuns) * 4);
  const std::string summary = scope.SummaryLine();
  EXPECT_NE(summary.find("runs=24"), std::string::npos);
}

TEST(SweepTelemetry, ScopeAggregatesAcrossSweepRuns) {
  analysis::SweepConfig config;
  config.ns = {4, 8};
  config.deltas = {2};
  config.seeds = {1, 2};
  config.use_pipeline = false;
  obs::Tracer tracer;
  obs::Scope::Options scope_options;
  scope_options.tracer = &tracer;
  obs::Scope scope(scope_options);
  config.scope = &scope;
  auto factory = [](uint64_t seed) { return ObsWorkload(seed, 64); };
  auto cells = analysis::RunCostSweep(factory, config);
  ASSERT_EQ(cells.size(), 2u);
  // 2 cells x 2 seeds = 4 engine runs absorbed.
  EXPECT_EQ(scope.runs_absorbed(), 4u);
  // Sweep tasks trace onto per-thread tracks.
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("sweep.run"), std::string::npos);
  EXPECT_NE(json.find("thread-"), std::string::npos);
}

#endif  // RRS_OBS_LEVEL >= 1

// ---- TimelinePolicy CSV export round-trip ---------------------------------

TEST(TimelineCsv, ExportRoundTripsAndSumsMatchRunResult) {
  Instance instance = ObsWorkload(41, /*rounds=*/128);
  DlruEdfPolicy inner;
  analysis::TimelinePolicy timeline(inner);
  EngineOptions options;
  options.num_resources = 4;
  options.cost_model.delta = 2;
  RunResult r = RunPolicy(instance, timeline, options);

  const std::string path = ::testing::TempDir() + "obs_timeline.csv";
  ASSERT_TRUE(timeline.ToTable().WriteCsv(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  // Column order is part of the export contract.
  EXPECT_EQ(header,
            "round,arrivals,drops,reconfigs,executed,backlog,utilization");

  uint64_t arrivals = 0, drops = 0, reconfigs = 0, executed = 0;
  size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string field;
    std::vector<std::string> row;
    while (std::getline(fields, field, ',')) row.push_back(field);
    ASSERT_EQ(row.size(), 7u) << line;
    arrivals += std::stoull(row[1]);
    drops += std::stoull(row[2]);
    reconfigs += std::stoull(row[3]);
    executed += std::stoull(row[4]);
    ++rows;
  }
  std::remove(path.c_str());

  EXPECT_GT(rows, 0u);
  EXPECT_EQ(arrivals, r.arrived);
  EXPECT_EQ(drops, r.cost.drops);
  EXPECT_EQ(reconfigs, r.cost.reconfigurations);
  EXPECT_EQ(executed, r.executed);
}

// ---- Level-0 contract -----------------------------------------------------

TEST(ObsLevel, PolicyCountersSurviveAtEveryLevel) {
  // The ExportMetrics -> telemetry.counters snapshot is end-of-run work and
  // runs regardless of RRS_OBS_LEVEL, so policies keep their counters even
  // with instrumentation compiled out.
  Instance instance = ObsWorkload(2, /*rounds=*/64);
  DlruEdfPolicy inner;
  InvariantCheckingPolicy checked(inner, /*lru_slots_den=*/4);
  EngineOptions options;
  options.num_resources = 4;
  options.cost_model.delta = 2;
  RunResult r = RunPolicy(instance, checked, options);
  ASSERT_TRUE(r.telemetry.counters.count("invariant_checks"));
  EXPECT_EQ(r.telemetry.counters["invariant_checks"],
            static_cast<double>(checked.checks_performed()));
#if RRS_OBS_LEVEL == 0
  // Compiled out: no telemetry, no scope absorption, but the run still works.
  obs::Scope scope;
  options.obs_scope = &scope;
  RunPolicy(instance, checked, options);
  EXPECT_EQ(scope.runs_absorbed(), 0u);
#endif
}

}  // namespace
}  // namespace rrs
