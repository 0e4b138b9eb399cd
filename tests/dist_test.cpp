// Distributed fleet differential suite (fleet/dist/): the multi-process
// controller/worker fabric must be observationally identical to a
// single-engine run of the same tenants —
//
//   - per-tenant RunResults (cost, executions, drops, telemetry counters)
//     bit-identical to the fresh-engine oracle at 1/2/4 workers, any worker
//     thread count;
//   - live migration at any cut point, for every registry policy, leaves
//     results, SLO windows, and golden trace digests exactly as if the
//     tenant had never moved (quiesce → snapshot → ship → restore);
//   - killing a worker and failing its tenants over from the checkpoint
//     stream (or restarting them from scratch) is invisible in the results:
//     deterministic re-execution converges on the same bits;
//   - seeded fault plans — random migrations and kills over a mixed,
//     live-capped fleet at several checkpoint cadences — change nothing
//     observable, for every registry policy.
//
// The protocol layer is round-tripped directly, and the controller/worker
// metrics endpoints are scraped over real HTTP.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/instance.h"
#include "fleet/dist/controller.h"
#include "fleet/dist/protocol.h"
#include "fleet/fleet_runner.h"
#include "fleet/slo.h"
#include "obs/export_server.h"
#include "sched/registry.h"
#include "util/rng.h"
#include "util/sha256.h"
#include "workload/arrival_source.h"
#include "workload/generator_spec.h"
#include "workload/memctrl.h"
#include "workload/synthetic.h"

namespace rrs {
namespace fleet {
namespace dist {
namespace {

Instance DistTenant(uint64_t seed, Round rounds = 96) {
  std::vector<workload::ColorSpec> specs = {
      {1, 0.4}, {2, 0.5}, {4, 0.5}, {8, 0.4}, {16, 0.3}};
  workload::PoissonOptions gen;
  gen.rounds = rounds;
  gen.seed = seed;
  return MakePoisson(specs, gen);
}

EngineOptions TestOptions() {
  EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 3;
  return options;
}

void ExpectSameRunResult(const RunResult& got, const RunResult& want,
                         const std::string& label) {
  EXPECT_EQ(got.cost.reconfigurations, want.cost.reconfigurations) << label;
  EXPECT_EQ(got.cost.drops, want.cost.drops) << label;
  EXPECT_EQ(got.cost.weighted_drops, want.cost.weighted_drops) << label;
  EXPECT_EQ(got.executed, want.executed) << label;
  EXPECT_EQ(got.arrived, want.arrived) << label;
  EXPECT_EQ(got.rounds_simulated, want.rounds_simulated) << label;
  EXPECT_EQ(got.drops_per_color, want.drops_per_color) << label;
  EXPECT_EQ(got.telemetry.reconfigs_per_color,
            want.telemetry.reconfigs_per_color)
      << label;
  EXPECT_EQ(got.telemetry.counters, want.telemetry.counters) << label;
}

// The golden-trace fold (tests/golden_trace_test.cpp TraceDigest), computed
// on a plain single-process engine — the oracle the controller's
// migration-proof digest fold must reproduce bit for bit.
std::string OracleDigest(const Instance& instance,
                         const std::string& policy) {
  auto p = MakePolicy(policy);
  Engine engine(instance, TestOptions());
  engine.BeginRun(*p);
  Sha256 hash;
  bool more = true;
  while (more) {
    more = engine.StepRounds(1);
    hash.UpdateU64(static_cast<uint64_t>(engine.next_round()));
    const CostBreakdown& cost = engine.run_cost();
    hash.UpdateU64(cost.reconfigurations);
    hash.UpdateU64(cost.drops);
    hash.UpdateU64(cost.weighted_drops);
    hash.UpdateU64(engine.run_executed());
  }
  RunResult result;
  engine.FinishRun(result);
  hash.UpdateU64(result.arrived);
  hash.UpdateU64(result.executed);
  for (uint64_t d : result.drops_per_color) hash.UpdateU64(d);
  return hash.FinishHex();
}

struct DistRun {
  std::vector<RunResult> results;
  std::vector<std::string> digests;
  SloTracker::Snapshot slo;
  DistStats stats;
};

void ExpectSameSloTotals(const SloTracker::Snapshot& got,
                         const SloTracker::Snapshot& want,
                         const std::string& label) {
  EXPECT_EQ(got.observations, want.observations) << label;
  EXPECT_EQ(got.rounds, want.rounds) << label;
  EXPECT_EQ(got.misses, want.misses) << label;
  EXPECT_EQ(got.windows_closed, want.windows_closed) << label;
  EXPECT_EQ(got.windows_breached, want.windows_breached) << label;
  EXPECT_EQ(got.exhausted_events, want.exhausted_events) << label;
  EXPECT_EQ(got.tenants_seen, want.tenants_seen) << label;
  EXPECT_EQ(got.tenants_finished, want.tenants_finished) << label;
  EXPECT_EQ(got.tenants_out_of_budget, want.tenants_out_of_budget) << label;
}

// Streaming counterpart of DistTenant: the GeneratorSpec whose local
// instantiation materializes to DistTenant's byte-identical instance.
workload::GeneratorSpec DistTenantSpec(uint64_t seed, Round rounds = 96) {
  std::vector<workload::ColorSpec> specs = {
      {1, 0.4}, {2, 0.5}, {4, 0.5}, {8, 0.4}, {16, 0.3}};
  workload::PoissonOptions gen;
  gen.rounds = rounds;
  gen.seed = seed;
  return workload::PoissonSpec(specs, gen);
}

// One instance-fed (spec-fed) job per tenant, with the test's engine
// options.
std::vector<FleetJob> InstanceJobs(const std::vector<Instance>& tenants) {
  std::vector<FleetJob> jobs(tenants.size());
  for (size_t t = 0; t < tenants.size(); ++t) {
    jobs[t].instance = &tenants[t];
    jobs[t].options = TestOptions();
  }
  return jobs;
}

std::vector<FleetJob> SpecJobs(
    const std::vector<workload::GeneratorSpec>& specs) {
  std::vector<FleetJob> jobs(specs.size());
  for (size_t t = 0; t < specs.size(); ++t) {
    jobs[t].source_spec = &specs[t];
    jobs[t].options = TestOptions();
  }
  return jobs;
}

// Runs the jobs on a dist fleet stepping one round per tick, with SLO
// tracking and golden-trace digests, after `plan` has scripted its faults.
DistRun RunDistFleetJobs(
    const std::vector<FleetJob>& jobs, const std::string& policy,
    size_t workers,
    const std::function<void(DistController&)>& plan = nullptr,
    uint32_t checkpoint_interval = 0, uint64_t max_live_sessions = 0) {
  DistOptions options;
  options.num_workers = workers;
  options.worker.policy = policy;
  options.worker.rounds_per_tick = 1;
  options.worker.max_live_sessions = max_live_sessions;
  options.worker.report_slo = true;
  options.worker.report_trace = true;
  options.worker.checkpoint_interval_ticks = checkpoint_interval;
  options.track_slo = true;
  options.trace_digests = true;
  options.slo.window_rounds = 16;
  options.slo.miss_budget = 2;
  DistController controller(std::move(options));
  std::string error;
  EXPECT_TRUE(controller.Start(&error)) << error;
  controller.AddJobs(jobs);
  if (plan) plan(controller);
  DistRun run;
  run.results = controller.Run();
  for (size_t t = 0; t < jobs.size(); ++t) {
    run.digests.push_back(controller.trace_digest(t));
  }
  run.slo = controller.slo()->SnapshotTotals();
  run.stats = controller.stats();
  controller.Shutdown();
  return run;
}

DistRun RunDistFleet(
    const std::vector<Instance>& tenants, const std::string& policy,
    size_t workers,
    const std::function<void(DistController&)>& plan = nullptr,
    uint32_t checkpoint_interval = 0) {
  return RunDistFleetJobs(InstanceJobs(tenants), policy, workers, plan,
                          checkpoint_interval);
}

// What every dist run of a fleet must reproduce: fresh single-engine runs
// of its jobs (spec-fed jobs materialized) and their golden-trace digests.
struct Oracle {
  std::vector<RunResult> results;
  std::vector<std::string> digests;
};

Oracle FreshEngineOracle(const std::vector<FleetJob>& jobs,
                         const std::string& policy) {
  Oracle oracle;
  for (const FleetJob& job : jobs) {
    Instance materialized;
    if (job.instance == nullptr) {
      auto source = workload::MakeSource(*job.source_spec);
      materialized = workload::Materialize(*source);
    }
    const Instance& instance =
        job.instance != nullptr ? *job.instance : materialized;
    auto p = MakePolicy(policy);
    oracle.results.push_back(RunPolicy(instance, *p, TestOptions()));
    oracle.digests.push_back(OracleDigest(instance, policy));
  }
  return oracle;
}

void ExpectMatchesOracle(const DistRun& run, const Oracle& oracle,
                         const std::string& label) {
  ASSERT_EQ(run.results.size(), oracle.results.size()) << label;
  for (size_t t = 0; t < oracle.results.size(); ++t) {
    ExpectSameRunResult(run.results[t], oracle.results[t],
                        label + " tenant " + std::to_string(t));
    EXPECT_EQ(run.digests[t], oracle.digests[t]) << label << " tenant " << t;
  }
}

// ---- Protocol round-trips ------------------------------------------------

TEST(DistProtocol, SourceTableRoundTripsAndRebuildsIdenticalSources) {
  const workload::GeneratorSpec poisson = DistTenantSpec(9);
  workload::MemctrlOptions mem;
  mem.rounds = 64;
  mem.refresh_period = 16;
  mem.refresh_length = 2;
  mem.seed = 5;
  const workload::GeneratorSpec memctrl = workload::MemctrlSpec(mem);
  snapshot::Writer w;
  Put(w, SourceTable{7, {poisson, memctrl}});
  snapshot::Reader r(w.words());
  const SourceTable decoded = Get<SourceTable>(r);
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(decoded.specs.size(), 2u);
  EXPECT_EQ(decoded.first_id, 7u);
  EXPECT_EQ(decoded.specs[0], poisson);
  EXPECT_EQ(decoded.specs[1], memctrl);
  // A worker-side instantiation of the decoded spec drives the engine
  // identically to the controller's local one.
  auto local = workload::MakeSource(poisson);
  auto remote = workload::MakeSource(decoded.specs[0]);
  auto p1 = MakePolicy("dlru-edf");
  auto p2 = MakePolicy("dlru-edf");
  Engine e1;
  e1.Reset(*local, TestOptions());
  Engine e2;
  e2.Reset(*remote, TestOptions());
  ExpectSameRunResult(e2.Run(*p2), e1.Run(*p1), "decoded source");
}

TEST(DistProtocol, TenantSpecsCarrySourceIds) {
  std::vector<TenantSpec> specs(2);
  specs[0].tenant = 3;
  specs[0].instance_id = 1;
  specs[0].options = WireOptions::From(TestOptions());
  specs[1].tenant = 4;
  specs[1].source_id = 9;
  snapshot::Writer w;
  Put(w, specs);
  snapshot::Reader r(w.words());
  const std::vector<TenantSpec> got = Get<std::vector<TenantSpec>>(r);
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].source_id, kNoSourceId);
  EXPECT_EQ(got[0].instance_id, 1u);
  EXPECT_EQ(got[1].source_id, 9u);
  EXPECT_EQ(got[1].tenant, 4u);
}

TEST(DistProtocol, ConfigRoundTrips) {
  WireConfig config;
  config.rounds_per_tick = 17;
  config.max_live_sessions = 5;
  config.collect_results = false;
  config.report_slo = true;
  config.report_trace = true;
  config.checkpoint_interval_ticks = 9;
  config.serve_metrics = true;
  config.policy = "greedy-edf";
  snapshot::Writer w;
  Put(w, config);
  snapshot::Reader r(w.words());
  const WireConfig got = Get<WireConfig>(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(got.rounds_per_tick, 17);
  EXPECT_EQ(got.max_live_sessions, 5u);
  EXPECT_FALSE(got.collect_results);
  EXPECT_TRUE(got.report_trace);
  EXPECT_EQ(got.checkpoint_interval_ticks, 9u);
  EXPECT_TRUE(got.serve_metrics);
  EXPECT_EQ(got.policy, "greedy-edf");
}

TEST(DistProtocol, InstanceTableRoundTripsIncludingNamesAndDropCosts) {
  InstanceBuilder builder;
  builder.AddColor(3, "alpha", 2);
  builder.AddColor(7, "beta-with-a-longer-name", 5);
  builder.AddJobs(0, 0, 4);
  builder.AddJobs(1, 2, 1);
  builder.AddJobs(0, 5, 3);
  const Instance original = builder.Build();
  snapshot::Writer w;
  Put(w, InstanceTable{11, {WireInstance::From(original)}});
  snapshot::Reader r(w.words());
  const InstanceTable decoded = Get<InstanceTable>(r);
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(decoded.instances.size(), 1u);
  EXPECT_EQ(decoded.first_id, 11u);
  const Instance got = decoded.instances[0].Build();
  ASSERT_EQ(got.num_colors(), original.num_colors());
  for (ColorId c = 0; c < original.num_colors(); ++c) {
    EXPECT_EQ(got.delay_bound(c), original.delay_bound(c));
    EXPECT_EQ(got.drop_cost(c), original.drop_cost(c));
    EXPECT_EQ(got.color_name(c), original.color_name(c));
  }
  ASSERT_EQ(got.jobs().size(), original.jobs().size());
  for (size_t j = 0; j < original.jobs().size(); ++j) {
    EXPECT_EQ(got.jobs()[j], original.jobs()[j]);
  }
  // A decoded instance must drive the engine identically.
  auto p1 = MakePolicy("dlru-edf");
  auto p2 = MakePolicy("dlru-edf");
  const RunResult a = RunPolicy(original, *p1, TestOptions());
  const RunResult b = RunPolicy(got, *p2, TestOptions());
  ExpectSameRunResult(b, a, "decoded instance");
}

TEST(DistProtocol, TickReportRoundTripsAllSections) {
  TickReport report;
  report.tick = 3;
  report.rounds_stepped = 640;
  report.live = 7;
  report.waiting = 2;
  report.tick_wall_ns = 12345;
  TenantResult done;
  done.tenant = 4;
  done.result.cost = {10, 3, 9};
  done.result.executed = 55;
  done.result.arrived = 58;
  done.result.rounds_simulated = 97;
  done.result.drops_per_color = {1, 2, 0};
  done.result.telemetry.reconfigs_per_color = {4, 0, 6};
  done.result.telemetry.counters["policy.recolor_scans"] = 42.0;
  report.completed.push_back(done);
  report.slo = {{1, 64, 2}, {2, 64, 0}};
  report.trace = {{1, 63, 4, 2, 6, 50}, {1, 64, 4, 2, 6, 51}};
  report.checkpoints.push_back({2, 64, {9, 8, 7}});
  snapshot::Writer w;
  Put(w, report);
  snapshot::Reader r(w.words());
  const TickReport got = Get<TickReport>(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(got.tick, 3u);
  EXPECT_EQ(got.rounds_stepped, 640u);
  EXPECT_EQ(got.live, 7u);
  EXPECT_EQ(got.waiting, 2u);
  ASSERT_EQ(got.completed.size(), 1u);
  EXPECT_EQ(got.completed[0].tenant, 4u);
  ExpectSameRunResult(got.completed[0].result, done.result, "tick report");
  ASSERT_EQ(got.slo.size(), 2u);
  EXPECT_EQ(got.slo[1].tenant, 2u);
  EXPECT_EQ(got.slo[0].misses, 2u);
  ASSERT_EQ(got.trace.size(), 2u);
  EXPECT_EQ(got.trace[1].round, 64u);
  EXPECT_EQ(got.trace[1].executed, 51u);
  ASSERT_EQ(got.checkpoints.size(), 1u);
  EXPECT_EQ(got.checkpoints[0].tenant, 2u);
  EXPECT_EQ(got.checkpoints[0].words, (std::vector<uint64_t>{9, 8, 7}));
}

TEST(DistProtocol, SmallBodiesRoundTrip) {
  {
    snapshot::Writer w;
    Put(w, TickCmd{77, true});
    snapshot::Reader r(w.words());
    const TickCmd cmd = Get<TickCmd>(r);
    EXPECT_EQ(cmd.tick, 77u);
    EXPECT_TRUE(cmd.checkpoint);
  }
  {
    snapshot::Writer w;
    Put(w, EvictTenant{123456789, true});
    snapshot::Reader r(w.words());
    const EvictTenant evict = Get<EvictTenant>(r);
    EXPECT_EQ(evict.tenant, 123456789u);
    EXPECT_TRUE(evict.checkpoint);
  }
  {
    TenantEvicted reply;
    reply.state = kTenantLive;
    reply.checkpoint = {5, 40, {1, 2, 3}};
    snapshot::Writer w;
    Put(w, reply);
    snapshot::Reader r(w.words());
    const TenantEvicted got = Get<TenantEvicted>(r);
    EXPECT_EQ(got.state, static_cast<uint64_t>(kTenantLive));
    EXPECT_EQ(got.checkpoint.round, 40u);
    EXPECT_EQ(got.checkpoint.words.size(), 3u);
  }
  {
    TenantEvicted waiting;
    waiting.state = kTenantWaiting;
    snapshot::Writer w;
    Put(w, waiting);
    snapshot::Reader r(w.words());
    const TenantEvicted got = Get<TenantEvicted>(r);
    EXPECT_EQ(got.state, static_cast<uint64_t>(kTenantWaiting));
    EXPECT_TRUE(got.checkpoint.words.empty());
  }
  {
    snapshot::Writer w;
    Put(w, TenantEvicted{kTenantLive, 4, {9, 33, {}}});
    snapshot::Reader r(w.words());
    const TenantEvicted info = Get<TenantEvicted>(r);
    EXPECT_EQ(info.checkpoint.tenant, 9u);
    EXPECT_EQ(info.checkpoint.round, 33u);
    EXPECT_EQ(info.misses, 4u);
  }
}

// ---- Bounded decoding ----------------------------------------------------
//
// A frame is another process's words. A checksummed section that announces
// more elements, or a longer string, than its remaining words can hold must
// die on the reader's count check before anything is sized from the count.

// One kTagDistMsg section of raw payload words, with a valid checksum.
std::vector<uint64_t> Frame(const std::vector<uint64_t>& payload) {
  snapshot::Writer w;
  w.BeginSection(snapshot::kTagDistMsg);
  for (const uint64_t word : payload) w.PutU64(word);
  w.EndSection();
  return w.words();
}

template <class T>
void Decode(const std::vector<uint64_t>& words) {
  snapshot::Reader r(words);
  Get<T>(r);
}

TEST(DistProtocolDeathTest, AnnouncedCountsBeyondTheFrameDie) {
  constexpr uint64_t kHuge = uint64_t{1} << 50;
  constexpr const char* kCountCheck = "exceeds the words left in the section";
  // TickReport: tick, rounds, live, waiting, wall ns, no completions, then
  // 2^50 SLO rows.
  EXPECT_DEATH(Decode<TickReport>(Frame({3, 640, 7, 2, 9, 0, kHuge, 0, 0})),
               kCountCheck);
  // A tenant batch of 2^50 specs.
  EXPECT_DEATH(Decode<std::vector<TenantSpec>>(Frame({kHuge, 1, 2, 3})),
               kCountCheck);
  // An instance batch of 2^50 instances.
  EXPECT_DEATH(Decode<InstanceTable>(Frame({0, kHuge, 0, 0})), kCountCheck);
  // A source table whose one spec's one name announces 4 KiB in one word:
  // first id, one spec (family, seed, rounds, batched, rate_limited, no
  // delays, rates or extra), one name.
  EXPECT_DEATH(Decode<SourceTable>(
                   Frame({0, 1, 1, 1, 16, 0, 0, 0, 0, 0, 1, 4096, 0})),
               kCountCheck);
}

// ---- End-to-end: multi-process fleet vs fresh-engine oracle --------------

TEST(DistFleet, MatchesSingleEngineOracleAcrossWorkerCounts) {
  std::vector<Instance> tenants;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    tenants.push_back(DistTenant(seed));
  }
  for (const std::string& policy : {std::string("dlru-edf"),
                                    std::string("edf")}) {
    const Oracle oracle = FreshEngineOracle(InstanceJobs(tenants), policy);
    for (const size_t workers : {1u, 2u, 4u}) {
      const DistRun run = RunDistFleet(tenants, policy, workers);
      const std::string label =
          policy + " @" + std::to_string(workers) + "w";
      ExpectMatchesOracle(run, oracle, label);
      EXPECT_EQ(run.stats.completed, tenants.size()) << label;
    }
  }
}

// ---- Live migration: every policy, every cut, 1/2/4 workers --------------
//
// At the cut tick every tenant is snapshotted off its worker and restored
// on another (on a 1-worker fleet: back onto the same worker — the full
// quiesce/snapshot/restore cycle still runs). Everything observable must
// match the never-migrated oracle.

TEST(DistMigration, EveryPolicyEveryCutMatchesNeverMigratedOracle) {
  std::vector<Instance> tenants;
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    tenants.push_back(DistTenant(seed));
  }
  const std::vector<uint64_t> cuts = {1, 17, 64};
  for (const std::string& policy : PolicyNames()) {
    // Never-migrated oracle: fresh engines + the direct digest fold, plus
    // the SLO totals of an undisturbed 1-worker dist run (the tracker is
    // fed identically regardless of placement, which is the claim).
    const Oracle oracle = FreshEngineOracle(InstanceJobs(tenants), policy);
    const DistRun undisturbed = RunDistFleet(tenants, policy, 1);
    for (const size_t workers : {1u, 2u, 4u}) {
      for (const uint64_t cut : cuts) {
        const DistRun run = RunDistFleet(
            tenants, policy, workers,
            [&](DistController& controller) {
              for (uint64_t t = 0; t < tenants.size(); ++t) {
                controller.ScheduleMigration(
                    cut, t, (t + cut) % controller.num_workers());
              }
            });
        const std::string label = policy + " cut=" + std::to_string(cut) +
                                  " @" + std::to_string(workers) + "w";
        ExpectMatchesOracle(run, oracle, label);
        ExpectSameSloTotals(run.slo, undisturbed.slo, label);
      }
    }
  }
}

// ---- Failover: kill a worker, recover from the checkpoint stream ---------

TEST(DistFailover, KilledWorkerRecoversFromCheckpointsBitIdentically) {
  std::vector<Instance> tenants;
  for (uint64_t seed = 31; seed <= 36; ++seed) {
    tenants.push_back(DistTenant(seed));
  }
  const std::string policy = "dlru-edf";
  const Oracle oracle = FreshEngineOracle(InstanceJobs(tenants), policy);
  const DistRun undisturbed = RunDistFleet(tenants, policy, 1);
  const DistRun run = RunDistFleet(
      tenants, policy, /*workers=*/3,
      [](DistController& controller) {
        controller.ScheduleKill(10, 1);
        controller.ScheduleKill(30, 2);
      },
      /*checkpoint_interval=*/4);
  EXPECT_EQ(run.stats.kills, 2u);
  EXPECT_GT(run.stats.restored_from_checkpoint, 0u);
  ExpectMatchesOracle(run, oracle, "failover");
  // SLO windows: the high-water guard must drop the rewound re-observations
  // so totals match the undisturbed fleet exactly.
  ExpectSameSloTotals(run.slo, undisturbed.slo, "failover slo");
}

TEST(DistFailover, UncheckpointedTenantsRestartFromScratch) {
  std::vector<Instance> tenants = {DistTenant(41), DistTenant(42),
                                   DistTenant(43)};
  const std::string policy = "greedy-edf";
  std::vector<RunResult> oracle;
  for (const Instance& tenant : tenants) {
    auto p = MakePolicy(policy);
    oracle.push_back(RunPolicy(tenant, *p, TestOptions()));
  }
  const DistRun undisturbed = RunDistFleet(tenants, policy, 1);
  // No checkpoint stream at all: the kill forces the from-scratch path.
  const DistRun run = RunDistFleet(
      tenants, policy, /*workers=*/2,
      [](DistController& controller) { controller.ScheduleKill(5, 0); },
      /*checkpoint_interval=*/0);
  EXPECT_EQ(run.stats.kills, 1u);
  EXPECT_EQ(run.stats.restored_from_checkpoint, 0u);
  EXPECT_GT(run.stats.restarted_from_scratch, 0u);
  for (size_t t = 0; t < tenants.size(); ++t) {
    ExpectSameRunResult(run.results[t], oracle[t],
                        "restart tenant " + std::to_string(t));
  }
  ExpectSameSloTotals(run.slo, undisturbed.slo, "restart slo");
}

// ---- Shedding ------------------------------------------------------------

TEST(DistShed, ScriptedShedDropsOneTenantAndLeavesTheRestExact) {
  std::vector<Instance> tenants = {DistTenant(51), DistTenant(52),
                                   DistTenant(53), DistTenant(54)};
  const std::string policy = "dlru-edf";
  std::vector<RunResult> oracle;
  for (const Instance& tenant : tenants) {
    auto p = MakePolicy(policy);
    oracle.push_back(RunPolicy(tenant, *p, TestOptions()));
  }
  const DistRun run = RunDistFleet(
      tenants, policy, /*workers=*/2,
      [](DistController& controller) { controller.ScheduleShed(3, 2); });
  EXPECT_EQ(run.stats.shed, 1u);
  EXPECT_EQ(run.stats.completed, tenants.size() - 1);
  for (size_t t = 0; t < tenants.size(); ++t) {
    if (t == 2) {
      EXPECT_EQ(run.results[t].rounds_simulated, 0);  // default result
      continue;
    }
    ExpectSameRunResult(run.results[t], oracle[t],
                        "shed-survivor " + std::to_string(t));
  }
}

// A tenant shed before its worker admits it: the eviction finds it waiting,
// drops it from the queue, and it never runs or reaches the SLO tracker.
TEST(DistShed, ShedOfAWaitingTenantNeverAdmitsIt) {
  std::vector<Instance> tenants = {DistTenant(55), DistTenant(56),
                                   DistTenant(57)};
  const std::string policy = "dlru-edf";
  DistOptions options;
  options.num_workers = 1;
  options.worker.policy = policy;
  options.worker.rounds_per_tick = 16;
  options.worker.max_live_sessions = 1;
  DistController controller(std::move(options));
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  controller.AddJobs(InstanceJobs(tenants));
  // At the first barrier tenant 0 runs; tenants 1 and 2 wait behind the cap.
  controller.ScheduleShed(1, 2);
  const std::vector<RunResult> results = controller.Run();
  EXPECT_EQ(controller.stats().shed, 1u);
  EXPECT_EQ(controller.stats().completed, tenants.size() - 1);
  EXPECT_TRUE(controller.tenant_shed(2));
  EXPECT_EQ(results[2].rounds_simulated, 0);  // default result
  EXPECT_EQ(results[2].arrived, 0u);
  for (size_t t = 0; t < 2; ++t) {
    EXPECT_FALSE(controller.tenant_shed(t));
    auto p = MakePolicy(policy);
    ExpectSameRunResult(results[t], RunPolicy(tenants[t], *p, TestOptions()),
                        "waiting-shed survivor " + std::to_string(t));
  }
  EXPECT_EQ(controller.slo()->SnapshotTotals().tenants_seen, 2u);
  controller.Shutdown();
}

// `never` never reconfigures, so most jobs miss their delay bounds: every
// tenant burns its window budget immediately and the threshold sheds them
// instead of letting them grind to completion.
DistOptions BurnValveOptions() {
  DistOptions options;
  options.num_workers = 2;
  options.worker.policy = "never";
  options.worker.rounds_per_tick = 4;
  options.slo.window_rounds = 16;
  options.slo.miss_budget = 1;
  options.shed_burn_threshold = 2.0;
  return options;
}

TEST(DistShed, BurnDrivenSheddingActsAsOverloadValve) {
  std::vector<Instance> tenants = {DistTenant(61), DistTenant(62)};
  DistController controller(BurnValveOptions());
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  controller.AddJobs(InstanceJobs(tenants));
  const std::vector<RunResult> results = controller.Run();
  const DistStats& stats = controller.stats();
  EXPECT_GT(stats.shed, 0u);
  EXPECT_EQ(stats.shed + stats.completed, tenants.size());
  for (size_t t = 0; t < tenants.size(); ++t) {
    EXPECT_EQ(controller.tenant_shed(t), results[t].rounds_simulated == 0);
  }
  controller.Shutdown();
}

// A shed tenant no longer runs, so the controller's SLO view must let it
// go: its window closes, it leaves the worst-burn list (/tenants) and the
// out-of-budget gauge, and it is not counted finished.
TEST(DistShed, ShedTenantsLeaveTheWorstBurnList) {
  std::vector<Instance> tenants = {DistTenant(61), DistTenant(62)};
  DistController controller(BurnValveOptions());
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  controller.AddJobs(InstanceJobs(tenants));
  controller.Run();
  ASSERT_EQ(controller.stats().shed, tenants.size());
  const SloTracker::Snapshot totals = controller.slo()->SnapshotTotals();
  EXPECT_EQ(totals.tenants_seen, tenants.size());
  EXPECT_GT(totals.misses, 0u);
  EXPECT_EQ(totals.tenants_out_of_budget, 0);
  EXPECT_TRUE(totals.top.empty());
  EXPECT_EQ(totals.tenants_finished, 0u);
  EXPECT_EQ(totals.miss_delay.count(), 0u);
  EXPECT_EQ(controller.slo()->TenantsJson(), "[]\n");
  controller.Shutdown();
}

// ---- Observability plane over the process boundary -----------------------

TEST(DistMetrics, ControllerAndWorkerEndpointsServeAggregates) {
  std::vector<Instance> tenants = {DistTenant(71), DistTenant(72),
                                   DistTenant(73)};
  DistOptions options;
  options.num_workers = 2;
  options.worker.policy = "dlru-edf";
  options.worker.rounds_per_tick = 8;
  options.worker.serve_metrics = true;
  options.serve_metrics = true;
  DistController controller(std::move(options));
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  controller.AddJobs(InstanceJobs(tenants));
  controller.Run();

  // Controller plane: Prometheus text with the SLO section, the /workers
  // placement table, and /tenants.
  ASSERT_NE(controller.metrics_port(), 0);
  std::string metrics = obs::HttpGet("127.0.0.1", controller.metrics_port(),
                                     "/metrics", &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_NE(metrics.find("rrs_dist_ticks"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("rrs_fleet_slo_observations"), std::string::npos);
  const std::string workers_json =
      obs::HttpGet("127.0.0.1", controller.metrics_port(), "/workers",
                   &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_NE(workers_json.find("\"worker\":0"), std::string::npos);
  EXPECT_NE(workers_json.find("\"worker\":1"), std::string::npos);
  EXPECT_NE(workers_json.find("\"alive\":true"), std::string::npos);

  // Worker plane: each worker process serves its own scrape endpoint; the
  // ports travel back through the ConfigAck handshake.
  const std::vector<uint64_t> ports = controller.worker_metrics_ports();
  ASSERT_EQ(ports.size(), 2u);
  for (size_t w = 0; w < ports.size(); ++w) {
    ASSERT_NE(ports[w], 0u) << "worker " << w;
    const std::string worker_metrics = obs::HttpGet(
        "127.0.0.1", static_cast<uint16_t>(ports[w]), "/metrics", &error);
    EXPECT_TRUE(error.empty()) << "worker " << w << ": " << error;
    EXPECT_NE(worker_metrics.find("rrs_worker_dist_worker_rounds_stepped"),
              std::string::npos)
        << worker_metrics;
  }
  controller.Shutdown();
}

// A worker-side cap exercises admission control: with max_live_sessions=1
// per worker, tenants queue and admit one at a time, and results must still
// match the oracle (admission order is deterministic).
TEST(DistFleet, LiveSessionCapQueuesDeterministically) {
  std::vector<Instance> tenants;
  for (uint64_t seed = 81; seed <= 86; ++seed) {
    tenants.push_back(DistTenant(seed));
  }
  const std::string policy = "dlru-edf";
  DistOptions options;
  options.num_workers = 2;
  options.worker.policy = policy;
  options.worker.rounds_per_tick = 16;
  options.worker.max_live_sessions = 1;
  DistController controller(std::move(options));
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  controller.AddJobs(InstanceJobs(tenants));
  const std::vector<RunResult> results = controller.Run();
  for (size_t t = 0; t < tenants.size(); ++t) {
    auto p = MakePolicy(policy);
    const RunResult oracle = RunPolicy(tenants[t], *p, TestOptions());
    ExpectSameRunResult(results[t], oracle,
                        "capped tenant " + std::to_string(t));
  }
  controller.Shutdown();
}

// ---- Streaming tenants over the wire -------------------------------------
//
// Streaming jobs ship as GeneratorSpecs (kMsgAddSources); every worker
// instantiates its own ArrivalSource, and migration checkpoints append the
// source's SaveState words to the engine's. All of it must be invisible in
// the results: bit-identical to the materialized oracle, moved or not.

TEST(DistStreaming, SourceTenantsMatchMaterializedOracleAcrossWorkerCounts) {
  std::vector<workload::GeneratorSpec> specs;
  for (uint64_t seed = 101; seed <= 105; ++seed) {
    specs.push_back(DistTenantSpec(seed));
  }
  workload::MemctrlOptions mem;
  mem.rounds = 96;
  mem.refresh_period = 24;
  mem.refresh_length = 4;
  mem.seed = 9;
  specs.push_back(workload::MemctrlSpec(mem));

  const std::string policy = "dlru-edf";
  const std::vector<FleetJob> jobs = SpecJobs(specs);
  const Oracle oracle = FreshEngineOracle(jobs, policy);
  for (const size_t workers : {1u, 2u, 4u}) {
    const DistRun run = RunDistFleetJobs(jobs, policy, workers);
    const std::string label = "streaming @" + std::to_string(workers) + "w";
    ExpectMatchesOracle(run, oracle, label);
    EXPECT_EQ(run.stats.completed, jobs.size()) << label;
  }
}

TEST(DistStreaming, MigrationShipsSourceStateBitIdentically) {
  std::vector<workload::GeneratorSpec> specs;
  for (uint64_t seed = 111; seed <= 114; ++seed) {
    specs.push_back(DistTenantSpec(seed));
  }
  const std::string policy = "dlru-edf";
  const std::vector<FleetJob> jobs = SpecJobs(specs);
  const Oracle oracle = FreshEngineOracle(jobs, policy);
  const DistRun undisturbed = RunDistFleetJobs(jobs, policy, 1);
  for (const size_t workers : {1u, 2u, 4u}) {
    for (const uint64_t cut : {1u, 17u, 64u}) {
      const DistRun run = RunDistFleetJobs(
          jobs, policy, workers,
          [&](DistController& controller) {
            for (uint64_t t = 0; t < jobs.size(); ++t) {
              controller.ScheduleMigration(
                  cut, t, (t + cut) % controller.num_workers());
            }
          });
      const std::string label = "streaming cut=" + std::to_string(cut) +
                                " @" + std::to_string(workers) + "w";
      ExpectMatchesOracle(run, oracle, label);
      EXPECT_GE(run.stats.migrations, jobs.size()) << label;
      ExpectSameSloTotals(run.slo, undisturbed.slo, label);
    }
  }
}

TEST(DistStreaming, FailoverRestoresStreamingTenantsFromCheckpoints) {
  std::vector<workload::GeneratorSpec> specs;
  for (uint64_t seed = 121; seed <= 126; ++seed) {
    specs.push_back(DistTenantSpec(seed));
  }
  const std::string policy = "greedy-edf";
  const std::vector<FleetJob> jobs = SpecJobs(specs);
  const Oracle oracle = FreshEngineOracle(jobs, policy);
  const DistRun undisturbed = RunDistFleetJobs(jobs, policy, 1);
  const DistRun run = RunDistFleetJobs(
      jobs, policy, /*workers=*/3,
      [](DistController& controller) {
        controller.ScheduleKill(10, 1);
        controller.ScheduleKill(30, 0);
      },
      /*checkpoint_interval=*/4);
  EXPECT_EQ(run.stats.kills, 2u);
  EXPECT_GT(run.stats.restored_from_checkpoint, 0u);
  ExpectMatchesOracle(run, oracle, "streaming failover");
  ExpectSameSloTotals(run.slo, undisturbed.slo, "streaming failover slo");
}

TEST(DistStreaming, MixedInstanceAndSourceFleetsCoexist) {
  std::vector<Instance> instances = {DistTenant(131), DistTenant(132)};
  std::vector<workload::GeneratorSpec> specs = {DistTenantSpec(133),
                                                DistTenantSpec(134)};
  const std::string policy = "dlru-edf";
  std::vector<FleetJob> jobs(4);
  std::vector<RunResult> oracle;
  for (size_t t = 0; t < 2; ++t) {
    jobs[t].instance = &instances[t];
    jobs[t].options = TestOptions();
    auto p = MakePolicy(policy);
    oracle.push_back(RunPolicy(instances[t], *p, TestOptions()));
  }
  for (size_t t = 0; t < 2; ++t) {
    jobs[2 + t].source_spec = &specs[t];
    jobs[2 + t].options = TestOptions();
    auto source = workload::MakeSource(specs[t]);
    const Instance materialized = workload::Materialize(*source);
    auto p = MakePolicy(policy);
    oracle.push_back(RunPolicy(materialized, *p, TestOptions()));
  }
  const DistRun run = RunDistFleetJobs(jobs, policy, 2);
  for (size_t t = 0; t < jobs.size(); ++t) {
    ExpectSameRunResult(run.results[t], oracle[t],
                        "mixed tenant " + std::to_string(t));
  }
  EXPECT_EQ(run.stats.completed, jobs.size());
}

// ---- Seeded fault plans ----------------------------------------------------
//
// For each seed an Rng scripts a fault plan before the run: live migrations
// of random tenants to random workers, and up to workers - 1 worker kills,
// all at random barriers. The fleet mixes instance-fed and spec-fed tenants,
// and a live cap of 2 per worker keeps some tenants waiting, so migrations
// move waiting tenants too. At every checkpoint cadence — none (a killed
// worker's tenants restart from scratch), every tick, every third tick —
// results, golden-trace digests and SLO totals must equal the unfaulted
// oracle. The seed count per policy is RRS_FUZZ_ITERS (3 at tier-1).

int FaultPlanSeeds() {
  const char* env = std::getenv("RRS_FUZZ_ITERS");
  if (env != nullptr && std::atoi(env) > 0) return std::atoi(env);
  return 3;
}

class DistFaultPlan : public ::testing::TestWithParam<std::string> {};

TEST_P(DistFaultPlan, SeededPlansMatchUnfaultedOracle) {
  const std::string policy = GetParam();
  constexpr size_t kWorkers = 4;
  constexpr uint64_t kLiveCap = 2;
  constexpr uint64_t kPlanTicks = 64;  // faults land at barriers 1..64
  std::vector<Instance> instances;
  std::vector<workload::GeneratorSpec> specs;
  for (uint64_t i = 0; i < 6; ++i) {
    const Round rounds = 24 + 8 * static_cast<Round>(i % 3);
    instances.push_back(DistTenant(141 + i, rounds));
    specs.push_back(DistTenantSpec(151 + i, rounds));
  }
  std::vector<FleetJob> jobs = InstanceJobs(instances);
  // lookahead reads future jobs, which a generator's jobless shape does not
  // carry: its fleet is instance-fed only.
  if (policy != "lookahead") {
    const std::vector<FleetJob> spec_jobs = SpecJobs(specs);
    jobs.insert(jobs.end(), spec_jobs.begin(), spec_jobs.end());
  }
  const Oracle oracle = FreshEngineOracle(jobs, policy);
  const DistRun unfaulted = RunDistFleetJobs(jobs, policy, 1);

  DistStats faults;
  for (int seed = 0; seed < FaultPlanSeeds(); ++seed) {
    for (const uint32_t cadence : {0u, 1u, 3u}) {
      Rng rng(0xfa17'0000ULL + 8 * static_cast<uint64_t>(seed) + cadence);
      // One draw per statement: argument evaluation order is unspecified.
      const auto plan = [&](DistController& controller) {
        for (size_t m = 0; m < jobs.size(); ++m) {
          const uint64_t tick = 1 + rng.NextBounded(kPlanTicks);
          const uint64_t tenant = rng.NextBounded(jobs.size());
          controller.ScheduleMigration(tick, tenant, rng.NextBounded(kWorkers));
        }
        const uint64_t kills = rng.NextBounded(kWorkers);
        for (uint64_t k = 0; k < kills; ++k) {
          const uint64_t tick = 1 + rng.NextBounded(kPlanTicks);
          controller.ScheduleKill(tick, rng.NextBounded(kWorkers));
        }
      };
      const DistRun run = RunDistFleetJobs(jobs, policy, kWorkers, plan,
                                           cadence, kLiveCap);
      const std::string label = policy + " seed=" + std::to_string(seed) +
                                " cadence=" + std::to_string(cadence);
      ExpectMatchesOracle(run, oracle, label);
      ExpectSameSloTotals(run.slo, unfaulted.slo, label);
      EXPECT_EQ(run.stats.completed, jobs.size()) << label;
      faults.migrations += run.stats.migrations;
      faults.kills += run.stats.kills;
      faults.restored_from_checkpoint += run.stats.restored_from_checkpoint;
      faults.restarted_from_scratch += run.stats.restarted_from_scratch;
    }
  }
  // The plans reach every fault path.
  EXPECT_GT(faults.migrations, 0u) << policy;
  EXPECT_GT(faults.kills, 0u) << policy;
  EXPECT_GT(faults.restored_from_checkpoint, 0u) << policy;
  EXPECT_GT(faults.restarted_from_scratch, 0u) << policy;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DistFaultPlan,
                         ::testing::ValuesIn(PolicyNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace dist
}  // namespace fleet
}  // namespace rrs
