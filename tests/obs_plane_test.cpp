// Observability-plane suite (ISSUE 7): the export server's routes, the
// per-tenant SLO tracker's window/budget accounting, the flight recorder's
// record → dump → decode round trip (including the crash-handler path, via
// fork), and the headline live-scrape consistency claim — a scrape taken
// while a sharded fleet is running must have per-shard SLO series that sum
// exactly to its fleet totals.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "fleet/fleet_runner.h"
#include "fleet/slo.h"
#include "obs/export_server.h"
#include "obs/flight_recorder.h"
#include "obs/scope.h"
#include "parallel/thread_pool.h"
#include "reduce/pipeline.h"
#include "workload/scenarios.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

Instance Tenant(uint64_t seed, Round rounds = 96) {
  std::vector<workload::ColorSpec> specs = {
      {1, 0.4}, {2, 0.5}, {4, 0.5}, {8, 0.4}, {16, 0.3}};
  workload::PoissonOptions gen;
  gen.rounds = rounds;
  gen.seed = seed;
  return MakePoisson(specs, gen);
}

struct Workload {
  std::vector<Instance> tenants;
  std::vector<fleet::FleetJob> jobs;
};

Workload MakeWorkload(size_t num_tenants, Round rounds = 96) {
  Workload w;
  w.tenants.reserve(num_tenants);
  for (size_t i = 0; i < num_tenants; ++i) {
    w.tenants.push_back(Tenant(900 + i, rounds));
  }
  for (size_t i = 0; i < num_tenants; ++i) {
    fleet::FleetJob job;
    job.instance = &w.tenants[i];
    job.options.num_resources = 8;
    w.jobs.push_back(job);
  }
  return w;
}

// Parses a Prometheus text body into series name (with label block) -> value.
std::map<std::string, double> ParseProm(const std::string& body) {
  std::map<std::string, double> series;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    series[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                nullptr);
  }
  return series;
}

// ---- Export server routes -------------------------------------------------

TEST(ExportServer, ServesDefaultAndCustomRoutes) {
  obs::Scope scope;
  const std::pair<std::string_view, uint64_t> counters[] = {
      {"plane.requests", 41}};
  scope.AbsorbCounters(counters);

  obs::ExportServer::Options options;
  options.scope = &scope;
  obs::ExportServer server(options);
  server.Handle("/tenants", "application/json", [] { return "[]\n"; });
  server.AddMetricsSection([] { return "extra_section 7\n"; });

  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  EXPECT_EQ(obs::HttpGet("127.0.0.1", server.port(), "/healthz"), "ok\n");
  EXPECT_EQ(obs::HttpGet("127.0.0.1", server.port(), "/tenants"), "[]\n");

  const std::string metrics =
      obs::HttpGet("127.0.0.1", server.port(), "/metrics");
  EXPECT_NE(metrics.find("rrs_plane_requests 41"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("# TYPE rrs_plane_requests counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("extra_section 7"), std::string::npos);

  const std::string json =
      obs::HttpGet("127.0.0.1", server.port(), "/metrics.json");
  EXPECT_NE(json.find("plane.requests"), std::string::npos) << json;

  std::string get_error;
  EXPECT_EQ(obs::HttpGet("127.0.0.1", server.port(), "/nope", &get_error),
            "");
  EXPECT_FALSE(get_error.empty());

  server.Stop();
  EXPECT_FALSE(server.running());
}

// ---- SLO tracker unit behavior --------------------------------------------

TEST(SloTracker, WindowRollAndBudgetExhaustion) {
  fleet::SloOptions options;
  options.window_rounds = 10;
  options.miss_budget = 2;
  options.top_k = 4;
  fleet::SloTracker slo(options);
  slo.Bind(/*num_tenants=*/2, /*num_shards=*/1);

  EXPECT_EQ(slo.Observe(0, 0, /*rounds=*/5, /*misses=*/1), 0u);
  // 3 misses in the window > budget 2: one exhaustion transition.
  EXPECT_EQ(slo.Observe(0, 0, /*rounds=*/9, /*misses=*/3), 1u);
  // Still exhausted: no second event...
  EXPECT_EQ(slo.Observe(0, 0, /*rounds=*/9, /*misses=*/4), 0u);
  // ...until the window rolls at rounds >= 10, which resets the budget.
  EXPECT_EQ(slo.Observe(0, 0, /*rounds=*/12, /*misses=*/4), 0u);

  slo.Publish(0);
  fleet::SloTracker::Snapshot snap = slo.SnapshotShard(0);
  EXPECT_EQ(snap.observations, 4u);
  EXPECT_EQ(snap.rounds, 12u);
  EXPECT_EQ(snap.misses, 4u);
  EXPECT_EQ(snap.windows_closed, 1u);
  EXPECT_EQ(snap.windows_breached, 1u);
  EXPECT_EQ(snap.exhausted_events, 1u);
  EXPECT_EQ(snap.tenants_seen, 1u);
  EXPECT_EQ(snap.tenants_out_of_budget, 0);  // roll un-exhausted it

  // A second tenant blows its budget in one observation.
  EXPECT_EQ(slo.Observe(0, 1, /*rounds=*/4, /*misses=*/5), 1u);
  slo.Publish(0);
  snap = slo.SnapshotShard(0);
  EXPECT_EQ(snap.tenants_seen, 2u);
  EXPECT_EQ(snap.tenants_out_of_budget, 1);
  ASSERT_FALSE(snap.top.empty());
  EXPECT_EQ(snap.top.front().tenant, 1u);
  EXPECT_EQ(snap.top.front().window_misses, 5u);
  EXPECT_DOUBLE_EQ(snap.top.front().burn, 2.5);

  // Totals over one shard == that shard.
  const fleet::SloTracker::Snapshot totals = slo.SnapshotTotals();
  EXPECT_EQ(totals.misses, snap.misses);
  EXPECT_EQ(totals.tenants_out_of_budget, snap.tenants_out_of_budget);
}

TEST(SloTracker, RenderPrometheusShardSeriesSumToTotals) {
  fleet::SloOptions options;
  options.window_rounds = 16;
  options.miss_budget = 1;
  fleet::SloTracker slo(options);
  slo.Bind(/*num_tenants=*/4, /*num_shards=*/2);
  slo.Observe(0, 0, 8, 3);
  slo.Observe(0, 1, 8, 1);
  slo.Observe(1, 2, 8, 4);
  slo.Publish(0);
  slo.Publish(1);

  const auto series = ParseProm(slo.RenderPrometheus());
  for (const char* name :
       {"rrs_fleet_slo_observations", "rrs_fleet_slo_rounds",
        "rrs_fleet_slo_misses", "rrs_fleet_slo_tenants_seen",
        "rrs_fleet_slo_tenants_out_of_budget"}) {
    const double total = series.at(name);
    const double by_shard = series.at(std::string(name) + "{shard=\"0\"}") +
                            series.at(std::string(name) + "{shard=\"1\"}");
    EXPECT_EQ(total, by_shard) << name;
  }
  EXPECT_EQ(series.at("rrs_fleet_slo_misses"), 8.0);

  // /tenants JSON carries the worst-burn tenants across shards.
  const std::string json = slo.TenantsJson();
  EXPECT_NE(json.find("\"tenant\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard\": 1"), std::string::npos) << json;
}

// ---- Fleet runner integration ---------------------------------------------

TEST(FleetSlo, TotalsMatchRunResults) {
  Workload w = MakeWorkload(32);
  obs::Scope scope;
  fleet::SloTracker slo;
  obs::FlightRecorder recorder;

  fleet::FleetOptions options;
  options.num_shards = 4;
  options.rounds_per_tick = 16;
  options.scope = &scope;
  options.slo = &slo;
  options.recorder = &recorder;
  fleet::FleetRunner runner(options);
  std::vector<RunResult> results = runner.RunAll(w.jobs);

  uint64_t total_drops = 0;
  for (const RunResult& result : results) total_drops += result.cost.drops;

  const fleet::SloTracker::Snapshot totals = slo.SnapshotTotals();
  EXPECT_EQ(totals.tenants_seen, w.jobs.size());
  EXPECT_EQ(totals.tenants_finished, w.jobs.size());
  EXPECT_EQ(totals.misses, total_drops);
  EXPECT_EQ(totals.miss_delay.count(), total_drops);
  EXPECT_EQ(totals.tenants_out_of_budget, 0);

  // The recorder saw the run: per-shard rings with admit/finish/tick events.
  EXPECT_EQ(recorder.num_rings(), 4u);
  obs::DecodedFlight decoded;
  std::string error;
  const char* path = "obs_plane_fleet_dump.bin";
  ASSERT_TRUE(recorder.DumpToFile(path));
  {
    std::FILE* f = std::fopen(path, "rb");
    ASSERT_NE(f, nullptr);
    std::string bytes;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
    std::fclose(f);
    std::remove(path);
    ASSERT_TRUE(obs::DecodeFlightDump(bytes, &decoded, &error)) << error;
  }
  uint64_t admits = 0, finishes = 0, ticks = 0;
  for (const obs::DecodedFlightRing& ring : decoded.rings) {
    EXPECT_EQ(ring.name.rfind("fleet.shard", 0), 0u) << ring.name;
    for (const obs::FlightEvent& event : ring.events) {
      if (event.type == obs::kFlightAdmit) ++admits;
      if (event.type == obs::kFlightFinish) ++finishes;
      if (event.type == obs::kFlightTick) ++ticks;
    }
  }
  EXPECT_EQ(admits, w.jobs.size());
  EXPECT_EQ(finishes, w.jobs.size());
  EXPECT_GT(ticks, 0u);
}

// The tracker owns the fleet.slo.* series. A page that serves the runner's
// scope and the tracker's section carries each family once, with this run's
// values, however many runs the scope has absorbed.
TEST(FleetSlo, SloSeriesAppearOncePerPageAcrossRuns) {
  Workload w = MakeWorkload(8);
  obs::Scope scope;
  fleet::SloTracker slo;
  fleet::FleetOptions options;
  options.num_shards = 2;
  options.rounds_per_tick = 16;
  options.scope = &scope;
  options.slo = &slo;
  fleet::FleetRunner runner(options);
  obs::ExportServer::Options server_options;
  server_options.scope = &scope;
  obs::ExportServer server(server_options);
  server.AddMetricsSection([&slo] { return slo.RenderPrometheus(); });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  runner.RunAll(w.jobs);
  uint64_t last_drops = 0;
  for (const RunResult& result : runner.RunAll(w.jobs)) {
    last_drops += result.cost.drops;
  }
  ASSERT_GT(last_drops, 0u);

  const std::string page =
      obs::HttpGet("127.0.0.1", server.port(), "/metrics", &error);
  ASSERT_TRUE(error.empty()) << error;
  std::map<std::string, int> type_lines;
  const std::string kType = "# TYPE rrs_fleet_slo_";
  for (size_t at = page.find(kType); at != std::string::npos;
       at = page.find(kType, at + 1)) {
    ++type_lines[page.substr(at, page.find(' ', at + kType.size()) - at)];
  }
  EXPECT_GE(type_lines.size(), 10u);
  for (const auto& [family, lines] : type_lines) {
    EXPECT_EQ(lines, 1) << family;
  }
  EXPECT_EQ(ParseProm(page).at("rrs_fleet_slo_misses"),
            static_cast<double>(last_drops));
  server.Stop();
}

// A pipeline tenant's result keeps the inner run's per-subcolor drops; the
// tracker must still class every miss by the tenant's own delay bounds.
TEST(FleetSlo, PipelineTenantMissesClassByItsOwnDelayBounds) {
  workload::DatacenterOptions gen;
  gen.rounds = 512;
  const Instance tenant = workload::MakeDatacenterScenario(gen);
  fleet::FleetJob job;
  job.instance = &tenant;
  job.options.num_resources = 8;
  job.options.cost_model.delta = 4;
  job.kind = fleet::FleetJob::Kind::kPipeline;
  fleet::SloTracker slo;
  fleet::FleetOptions options;
  options.slo = &slo;
  fleet::FleetRunner runner(options);
  const std::vector<RunResult> results = runner.RunAll({&job, 1});
  const uint64_t drops = results[0].cost.drops;
  ASSERT_GT(drops, 0u);
  ASSERT_GT(results[0].drops_per_color.size(), tenant.num_colors());

  const fleet::SloTracker::Snapshot totals = slo.SnapshotTotals();
  EXPECT_EQ(totals.misses, drops);
  EXPECT_EQ(totals.miss_delay.count(), drops);
  for (uint32_t i = 0; i < obs::LogHistogram::kNumBuckets; ++i) {
    if (totals.miss_delay.bucket_count(i) == 0) continue;
    bool own_class = false;
    for (ColorId c = 0; c < tenant.num_colors(); ++c) {
      const uint64_t delay = static_cast<uint64_t>(tenant.delay_bound(c));
      own_class |= delay >= obs::LogHistogram::BucketLo(i) &&
                   delay < obs::LogHistogram::BucketHi(i);
    }
    EXPECT_TRUE(own_class) << "bucket " << i;
  }
  // Each subcolor's drops count at its base color's delay bound.
  const reduce::PipelineResult pipe = reduce::SolveOnline(tenant, job.options);
  uint64_t delay_sum = 0;
  for (size_t c = 0; c < pipe.inner.drops_per_color.size(); ++c) {
    delay_sum += pipe.inner.drops_per_color[c] *
                 static_cast<uint64_t>(
                     tenant.delay_bound(pipe.distribute.base_of[c]));
  }
  EXPECT_EQ(totals.miss_delay.sum(), delay_sum);
}

// ---- Flight recorder ------------------------------------------------------

TEST(FlightRecorder, RecordDumpDecodeRoundTrip) {
  obs::FlightRecorder::Options options;
  options.ring_capacity = 8;
  obs::FlightRecorder recorder(options);

  obs::FlightRing* a = recorder.Ring("alpha");
  obs::FlightRing* b = recorder.Ring("beta");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(recorder.Ring("alpha"), a);  // get-or-register
  EXPECT_EQ(recorder.num_rings(), 2u);

  a->Record(obs::kFlightMark, 1, 10, 100);
  a->Record(obs::kFlightTick, 2, 20, 200);
  // Overflow beta so the ring wraps: only the newest `capacity` survive.
  for (uint64_t i = 0; i < 20; ++i) {
    b->Record(obs::kFlightAdmit, 0, i);
  }

  const char* path = "obs_plane_roundtrip_dump.bin";
  ASSERT_TRUE(recorder.DumpToFile(path));
  std::FILE* f = std::fopen(path, "rb");
  ASSERT_NE(f, nullptr);
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  std::remove(path);

  obs::DecodedFlight decoded;
  std::string error;
  ASSERT_TRUE(obs::DecodeFlightDump(bytes, &decoded, &error)) << error;
  EXPECT_EQ(decoded.version, 1u);
  EXPECT_EQ(decoded.ring_capacity, 8u);
  ASSERT_EQ(decoded.rings.size(), 2u);

  const obs::DecodedFlightRing& alpha = decoded.rings[0];
  EXPECT_EQ(alpha.name, "alpha");
  EXPECT_EQ(alpha.recorded, 2u);
  ASSERT_EQ(alpha.events.size(), 2u);
  EXPECT_EQ(alpha.events[0].type, obs::kFlightMark);
  EXPECT_EQ(alpha.events[0].arg0, 1u);
  EXPECT_EQ(alpha.events[0].arg1, 10u);
  EXPECT_EQ(alpha.events[0].arg2, 100u);
  EXPECT_LE(alpha.events[0].ts_ns, alpha.events[1].ts_ns);

  const obs::DecodedFlightRing& beta = decoded.rings[1];
  EXPECT_EQ(beta.recorded, 20u);
  ASSERT_EQ(beta.events.size(), 8u);  // wrapped: newest 8 of 20
  EXPECT_EQ(beta.events.front().arg1, 12u);
  EXPECT_EQ(beta.events.back().arg1, 19u);

  const std::string line =
      obs::FormatFlightEvent(alpha.events[0], alpha.events[0].ts_ns);
  EXPECT_NE(line.find("mark"), std::string::npos) << line;
}

TEST(FlightRecorder, RingDirectoryFillsGracefully) {
  obs::FlightRecorder::Options options;
  options.ring_capacity = 4;
  options.max_rings = 2;
  obs::FlightRecorder recorder(options);
  EXPECT_NE(recorder.Ring("one"), nullptr);
  EXPECT_NE(recorder.Ring("two"), nullptr);
  EXPECT_EQ(recorder.Ring("three"), nullptr);  // full: callers keep the null
  EXPECT_EQ(recorder.num_rings(), 2u);
}

// SIGABRT mid-run must leave a decodable dump containing the events recorded
// before the crash — checked in a forked child so the abort doesn't take the
// test runner with it.
TEST(FlightRecorder, AbortProducesDecodableDumpWithInjectedFaults) {
  const char* path = "obs_plane_crash_dump.bin";
  std::remove(path);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: record a failover history (a tick, a tenant restored from its
    // checkpoint, an SLO budget exhausted), install the handler, crash.
    static obs::FlightRecorder recorder;
    obs::FlightRing* ring = recorder.Ring("fleet.shard0");
    if (ring == nullptr) _exit(3);
    ring->Record(obs::kFlightTick, 0, 1);
    ring->Record(obs::kFlightRestore, 2, 7);
    ring->Record(obs::kFlightSloExhausted, 1, 42, 3);
    obs::InstallFlightCrashHandler(&recorder, path);
    std::abort();
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  std::FILE* f = std::fopen(path, "rb");
  ASSERT_NE(f, nullptr) << "crash handler did not write the dump";
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  std::remove(path);

  obs::DecodedFlight decoded;
  std::string error;
  ASSERT_TRUE(obs::DecodeFlightDump(bytes, &decoded, &error)) << error;
  ASSERT_EQ(decoded.rings.size(), 1u);
  EXPECT_EQ(decoded.rings[0].name, "fleet.shard0");
  ASSERT_EQ(decoded.rings[0].events.size(), 3u);
  EXPECT_EQ(decoded.rings[0].events[1].type, obs::kFlightRestore);
  EXPECT_EQ(decoded.rings[0].events[1].arg0, 2u);
  EXPECT_EQ(decoded.rings[0].events[2].type, obs::kFlightSloExhausted);
  EXPECT_EQ(decoded.rings[0].events[2].arg1, 42u);
}

// ---- Live scrape during a running fleet -----------------------------------

// The acceptance claim: scraping /metrics while a 10k-tenant fleet runs its
// shards on pool threads returns internally consistent per-shard counters —
// the sum over shard-labeled series equals the fleet total in the same
// scrape, because both are rendered from one set of published per-shard
// snapshots.
TEST(ObsPlane, LiveScrapeIsConsistentDuringFleetRun) {
  constexpr size_t kTenants = 10000;
  Workload w;
  w.tenants.reserve(kTenants);
  // One shared instance per shape class keeps setup fast; tenants still
  // finish on different ticks via varied engine deltas.
  for (size_t i = 0; i < 8; ++i) {
    w.tenants.push_back(Tenant(700 + i, 64 + 16 * (i % 4)));
  }
  for (size_t i = 0; i < kTenants; ++i) {
    fleet::FleetJob job;
    job.instance = &w.tenants[i % w.tenants.size()];
    job.options.num_resources = 8;
    job.options.cost_model.delta = 2 + static_cast<uint64_t>(i % 3);
    w.jobs.push_back(job);
  }

  obs::Scope scope;
  fleet::SloOptions slo_options;
  slo_options.window_rounds = 32;
  slo_options.miss_budget = 4;
  fleet::SloTracker slo(slo_options);
  obs::FlightRecorder recorder;

  obs::ExportServer::Options server_options;
  server_options.scope = &scope;
  obs::ExportServer server(server_options);
  server.AddMetricsSection([&slo] { return slo.RenderPrometheus(); });
  server.Handle("/tenants", "application/json",
                [&slo] { return slo.TenantsJson(); });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const char* kSummed[] = {"rrs_fleet_slo_observations", "rrs_fleet_slo_rounds",
                           "rrs_fleet_slo_misses",
                           "rrs_fleet_slo_tenants_finished",
                           "rrs_fleet_slo_tenants_out_of_budget"};

  std::atomic<bool> done{false};
  std::atomic<uint64_t> scrapes_with_data{0};
  std::atomic<uint64_t> inconsistencies{0};
  const uint16_t port = server.port();
  auto scrape_once = [&](size_t num_workers) {
    const std::string body = obs::HttpGet("127.0.0.1", port, "/metrics");
    if (body.empty()) return;
    const auto series = ParseProm(body);
    auto it = series.find("rrs_fleet_slo_observations");
    if (it == series.end() || it->second <= 0) return;
    scrapes_with_data.fetch_add(1);
    for (const char* name : kSummed) {
      double by_shard = 0;
      for (size_t s = 0; s < num_workers; ++s) {
        auto shard_it =
            series.find(std::string(name) + "{shard=\"" + std::to_string(s) +
                        "\"}");
        if (shard_it != series.end()) by_shard += shard_it->second;
      }
      if (by_shard != series.at(name)) inconsistencies.fetch_add(1);
    }
    // /tenants must be parseable JSON at any moment.
    const std::string json = obs::HttpGet("127.0.0.1", port, "/tenants");
    EXPECT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '[');
  };

  fleet::FleetOptions options;
  options.num_shards = 4;
  options.rounds_per_tick = 16;
  options.scope = &scope;
  options.slo = &slo;
  options.recorder = &recorder;
  ThreadPool pool(2);
  options.pool = &pool;
  fleet::FleetRunner runner(options);

  std::thread scraper([&] {
    while (!done.load()) scrape_once(options.num_shards);
  });
  std::vector<RunResult> results = runner.RunAll(w.jobs);
  done.store(true);
  scraper.join();
  scrape_once(options.num_shards);  // final state is also consistent

  EXPECT_GE(scrapes_with_data.load(), 1u);
  EXPECT_EQ(inconsistencies.load(), 0u);

  // Post-run, the scraped totals equal ground truth from the results.
  uint64_t total_drops = 0;
  for (const RunResult& result : results) total_drops += result.cost.drops;
  const auto series =
      ParseProm(obs::HttpGet("127.0.0.1", port, "/metrics"));
  EXPECT_EQ(series.at("rrs_fleet_slo_tenants_finished"),
            static_cast<double>(kTenants));
  EXPECT_EQ(series.at("rrs_fleet_slo_misses"),
            static_cast<double>(total_drops));
  server.Stop();
}

}  // namespace
}  // namespace rrs
