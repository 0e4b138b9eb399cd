// RRS_OBS_LEVEL=0 erasure suite. This binary links rrsched_obs0, the library
// rebuilt with instrumentation compiled out; the assertions pin the level-0
// contract: the observability plane costs nothing (no rings, no SLO state,
// the wired call sites fold away behind constexpr obs::kEnabled), results
// are unchanged, and the passive halves — export server, dump decoder —
// still work so operators keep their tooling on lean builds.
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "fleet/fleet_runner.h"
#include "fleet/slo.h"
#include "obs/export_server.h"
#include "obs/flight_recorder.h"
#include "obs/level.h"
#include "obs/scope.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

static_assert(!obs::kEnabled, "obs0 suite must be compiled at RRS_OBS_LEVEL=0");

Instance Tenant(uint64_t seed) {
  std::vector<workload::ColorSpec> specs = {{1, 0.4}, {4, 0.5}, {16, 0.3}};
  workload::PoissonOptions gen;
  gen.rounds = 64;
  gen.seed = seed;
  return MakePoisson(specs, gen);
}

TEST(Obs0, FlightRecorderIsErasedButDumpsStayValid) {
  obs::FlightRecorder recorder;
  EXPECT_EQ(recorder.Ring("anything"), nullptr);
  EXPECT_EQ(recorder.num_rings(), 0u);

  const char* path = "obs0_dump.bin";
  ASSERT_TRUE(recorder.DumpToFile(path));
  std::FILE* f = std::fopen(path, "rb");
  ASSERT_NE(f, nullptr);
  std::string bytes;
  char buf[256];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  std::remove(path);

  obs::DecodedFlight decoded;
  std::string error;
  ASSERT_TRUE(obs::DecodeFlightDump(bytes, &decoded, &error)) << error;
  EXPECT_EQ(decoded.version, 1u);
  EXPECT_TRUE(decoded.rings.empty());
}

TEST(Obs0, FleetRunnerIgnoresSloAndRecorder) {
  std::vector<Instance> tenants;
  for (size_t i = 0; i < 8; ++i) tenants.push_back(Tenant(40 + i));
  std::vector<fleet::FleetJob> jobs;
  for (const Instance& tenant : tenants) {
    fleet::FleetJob job;
    job.instance = &tenant;
    job.options.num_resources = 4;
    jobs.push_back(job);
  }

  fleet::SloTracker slo;
  obs::FlightRecorder recorder;
  fleet::FleetOptions options;
  options.num_shards = 2;
  options.slo = &slo;
  options.recorder = &recorder;
  std::vector<RunResult> results = fleet::FleetRunner(options).RunAll(jobs);

  ASSERT_EQ(results.size(), jobs.size());
  for (const RunResult& result : results) {
    EXPECT_GT(result.rounds_simulated, 0);
    EXPECT_GT(result.arrived, 0u);
  }
  // Never bound, never observed: the call sites are compiled out.
  EXPECT_EQ(slo.num_shards(), 0u);
  EXPECT_EQ(recorder.num_rings(), 0u);
}

TEST(Obs0, ExportServerStillServes) {
  obs::Scope scope;
  const std::pair<std::string_view, uint64_t> counters[] = {{"lean.runs", 3}};
  scope.AbsorbCounters(counters);

  obs::ExportServer::Options options;
  options.scope = &scope;
  obs::ExportServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  EXPECT_EQ(obs::HttpGet("127.0.0.1", server.port(), "/healthz"), "ok\n");
  const std::string metrics =
      obs::HttpGet("127.0.0.1", server.port(), "/metrics");
  EXPECT_NE(metrics.find("rrs_lean_runs 3"), std::string::npos) << metrics;
  server.Stop();
}

}  // namespace
}  // namespace rrs
