// Session-reuse differential suite: the core/session.h contract says a run
// through a reused (Reset) session or a pooled fleet session is
// bit-identical to a run through a freshly constructed engine. This file
// pins that, for every registry policy, for the FleetRunner at 0/1/2/8
// threads, for the pipeline session, and for the OnlineSolver — plus the
// TickCore checkpoint path every fleet runner shares.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "fleet/fleet_runner.h"
#include "fleet/tick_core.h"
#include "parallel/thread_pool.h"
#include "reduce/distribute.h"
#include "reduce/online.h"
#include "reduce/pipeline.h"
#include "reduce/varbatch.h"
#include "sched/dlru_edf.h"
#include "sched/registry.h"
#include "snapshot/codec.h"
#include "workload/generator_spec.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

Instance FleetTenant(uint64_t seed, Round rounds = 96) {
  std::vector<workload::ColorSpec> specs = {
      {1, 0.4}, {2, 0.5}, {4, 0.5}, {8, 0.4}, {16, 0.3}};
  workload::PoissonOptions gen;
  gen.rounds = rounds;
  gen.seed = seed;
  return MakePoisson(specs, gen);
}

// Bit-identical RunResult comparison over everything deterministic (phase
// wall times excluded).
void ExpectSameRunResult(const RunResult& got, const RunResult& want,
                         const std::string& label) {
  EXPECT_EQ(got.cost.reconfigurations, want.cost.reconfigurations) << label;
  EXPECT_EQ(got.cost.drops, want.cost.drops) << label;
  EXPECT_EQ(got.cost.weighted_drops, want.cost.weighted_drops) << label;
  EXPECT_EQ(got.executed, want.executed) << label;
  EXPECT_EQ(got.arrived, want.arrived) << label;
  EXPECT_EQ(got.rounds_simulated, want.rounds_simulated) << label;
  EXPECT_EQ(got.drops_per_color, want.drops_per_color) << label;
  EXPECT_EQ(got.telemetry.counters, want.telemetry.counters) << label;
}

// ---- One session object, many tenants, every registry policy -------------

TEST(SessionReuse, EveryRegistryPolicyIsLeakFreeAcrossResets) {
  std::vector<Instance> tenants;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    tenants.push_back(FleetTenant(seed));
  }

  for (const std::string& name : PolicyNames()) {
    // Oracle: fresh engine + fresh policy per tenant.
    std::vector<RunResult> fresh;
    for (size_t i = 0; i < tenants.size(); ++i) {
      EngineOptions options;
      options.num_resources = 8;
      options.cost_model.delta = 2 + static_cast<uint64_t>(i % 3);
      auto policy = MakePolicy(name);
      ASSERT_NE(policy, nullptr) << name;
      fresh.push_back(RunPolicy(tenants[i], *policy, options));
    }

    // One engine session + one policy object reused across all tenants.
    Engine engine;
    auto policy = MakePolicy(name);
    for (size_t i = 0; i < tenants.size(); ++i) {
      EngineOptions options;
      options.num_resources = 8;
      options.cost_model.delta = 2 + static_cast<uint64_t>(i % 3);
      engine.Reset(tenants[i], options);
      RunResult reused = engine.Run(*policy);
      ExpectSameRunResult(reused, fresh[i],
                          name + " tenant " + std::to_string(i));
    }
  }
}

TEST(SessionReuse, ShapeCanShrinkAndGrowBetweenTenants) {
  // Alternate between wide and narrow shapes so the session arena both
  // grows and serves smaller tenants from oversized buffers.
  std::vector<Instance> tenants = {FleetTenant(11, 32), FleetTenant(12, 256),
                                   FleetTenant(13, 16), FleetTenant(14, 128)};
  Engine engine;
  DlruEdfPolicy reused_policy;
  for (size_t i = 0; i < tenants.size(); ++i) {
    EngineOptions options;
    options.num_resources = 4 + 4 * static_cast<uint32_t>(i % 2);
    options.cost_model.delta = 3;
    DlruEdfPolicy fresh_policy;
    RunResult fresh = RunPolicy(tenants[i], fresh_policy, options);
    engine.Reset(tenants[i], options);
    ExpectSameRunResult(engine.Run(reused_policy), fresh,
                        "shape tenant " + std::to_string(i));
  }
}

// ---- FleetRunner differential, 0/1/2/8 threads ---------------------------

class FleetDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(FleetDifferential, ReplayFleetMatchesFreshEngines) {
  const size_t threads = GetParam();
  constexpr size_t kTenants = 24;

  std::vector<Instance> tenants;
  std::vector<fleet::FleetJob> jobs;
  std::vector<RunResult> fresh;
  for (size_t i = 0; i < kTenants; ++i) {
    tenants.push_back(FleetTenant(100 + i));
  }
  for (size_t i = 0; i < kTenants; ++i) {
    fleet::FleetJob job;
    job.instance = &tenants[i];
    job.options.num_resources = i % 2 == 0 ? 8 : 4;
    job.options.cost_model.delta = 2 + static_cast<uint64_t>(i % 3);
    jobs.push_back(job);

    DlruEdfPolicy policy;
    fresh.push_back(RunPolicy(tenants[i], policy, jobs[i].options));
  }

  std::unique_ptr<ThreadPool> pool;
  fleet::FleetOptions options;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads);
    options.pool = pool.get();
  }
  options.num_shards = 3;        // deliberately != thread count
  options.rounds_per_tick = 16;  // force multi-tick interleaving
  fleet::FleetRunner runner(std::move(options));

  std::vector<RunResult> got = runner.RunAll(jobs);
  ASSERT_EQ(got.size(), kTenants);
  for (size_t i = 0; i < kTenants; ++i) {
    ExpectSameRunResult(got[i], fresh[i],
                        "threads=" + std::to_string(threads) + " tenant " +
                            std::to_string(i));
  }

  const fleet::FleetStats stats = runner.stats();
  EXPECT_EQ(stats.sessions_completed, kTenants);
  EXPECT_GT(stats.ticks, 0u);

  // A second fleet through the same runner starts from warm pools and is
  // still bit-identical.
  std::vector<RunResult> again = runner.RunAll(jobs);
  for (size_t i = 0; i < kTenants; ++i) {
    ExpectSameRunResult(again[i], fresh[i],
                        "rerun tenant " + std::to_string(i));
  }
  // The warm rerun served every tenant from recycled sessions: no pool
  // growth beyond the first fleet's high-water mark.
  const fleet::FleetStats warm = runner.stats();
  EXPECT_GT(warm.sessions_recycled, 0u);
  EXPECT_EQ(warm.sessions_created, stats.sessions_created);
}

TEST_P(FleetDifferential, PipelineFleetMatchesSolveOnline) {
  const size_t threads = GetParam();
  constexpr size_t kTenants = 8;

  std::vector<Instance> tenants;
  for (size_t i = 0; i < kTenants; ++i) {
    tenants.push_back(FleetTenant(200 + i, 64));
  }

  std::vector<fleet::FleetJob> jobs;
  std::vector<CostBreakdown> fresh_cost;
  for (size_t i = 0; i < kTenants; ++i) {
    fleet::FleetJob job;
    job.instance = &tenants[i];
    job.options.num_resources = 8;
    job.options.cost_model.delta = 3;
    job.kind = fleet::FleetJob::Kind::kPipeline;
    jobs.push_back(job);
    fresh_cost.push_back(
        reduce::SolveOnline(tenants[i], job.options).cost());
  }

  std::unique_ptr<ThreadPool> pool;
  fleet::FleetOptions options;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads);
    options.pool = pool.get();
  }
  fleet::FleetRunner runner(std::move(options));
  std::vector<RunResult> got = runner.RunAll(jobs);
  for (size_t i = 0; i < kTenants; ++i) {
    EXPECT_EQ(got[i].cost.reconfigurations, fresh_cost[i].reconfigurations)
        << i;
    EXPECT_EQ(got[i].cost.drops, fresh_cost[i].drops) << i;
    EXPECT_EQ(got[i].arrived, tenants[i].num_jobs()) << i;
    EXPECT_EQ(got[i].executed, got[i].arrived - got[i].cost.drops) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, FleetDifferential,
                         ::testing::Values(0u, 1u, 2u, 8u));

TEST(FleetRunner, LiveSessionCapBoundsConcurrency) {
  constexpr size_t kTenants = 12;
  std::vector<Instance> tenants;
  std::vector<fleet::FleetJob> jobs;
  for (size_t i = 0; i < kTenants; ++i) {
    tenants.push_back(FleetTenant(300 + i, 48));
  }
  std::vector<RunResult> fresh;
  for (size_t i = 0; i < kTenants; ++i) {
    fleet::FleetJob job;
    job.instance = &tenants[i];
    job.options.num_resources = 8;
    job.options.cost_model.delta = 2;
    jobs.push_back(job);
    DlruEdfPolicy policy;
    fresh.push_back(RunPolicy(tenants[i], policy, job.options));
  }

  fleet::FleetOptions options;
  options.num_shards = 1;
  options.max_live_sessions = 3;
  options.rounds_per_tick = 8;
  fleet::FleetRunner runner(std::move(options));
  std::vector<RunResult> got = runner.RunAll(jobs);
  for (size_t i = 0; i < kTenants; ++i) {
    ExpectSameRunResult(got[i], fresh[i], "capped tenant " + std::to_string(i));
  }
  const fleet::FleetStats stats = runner.stats();
  EXPECT_LE(stats.peak_live_sessions, 3u);
  EXPECT_EQ(stats.sessions_completed, kTenants);
  // The pool never needs more sessions than the live cap.
  EXPECT_LE(stats.sessions_created, 3u);
}

// Slab lanes and scalar fallback sessions share one live count: six tenants
// admitted in the same tick, three on lanes and three on scalar sessions,
// are six live tenants.
TEST(FleetRunner, PeakLiveCountsLanesAndScalarSessionsTogether) {
  const Instance tenant = FleetTenant(310, 48);
  std::vector<fleet::FleetJob> jobs(6);
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].instance = &tenant;
    jobs[i].options.num_resources = 4;
    // Recording runs are batch-ineligible: they fall back to scalar.
    jobs[i].options.record_schedule = i % 2 == 1;
  }

  fleet::FleetOptions options;
  options.num_shards = 1;
  options.batch_width = 8;
  fleet::FleetRunner runner(std::move(options));
  runner.RunAll(jobs);
  const fleet::FleetStats stats = runner.stats();
  EXPECT_EQ(stats.batched_sessions, 3u);
  EXPECT_EQ(stats.fallback_sessions, 3u);
  EXPECT_EQ(stats.peak_live_sessions, 6u);
}

// A slab builds a lane's policy when that lane first opens, so the policy
// factory runs once per opened lane or scalar session — three distinct
// shapes on 64-wide slabs plus one scalar fallback build four policies, not
// 3 x 64 + 1.
TEST(FleetRunner, PolicyFactoryRunsOncePerOpenedLaneOrSession) {
  std::vector<Instance> tenants;
  for (size_t colors = 3; colors <= 5; ++colors) {
    std::vector<workload::ColorSpec> specs;
    for (size_t c = 0; c < colors; ++c) {
      specs.push_back({Round{1} << c, 0.4});
    }
    workload::PoissonOptions gen;
    gen.rounds = 40;
    gen.seed = 320 + colors;
    tenants.push_back(MakePoisson(specs, gen));
  }
  std::vector<fleet::FleetJob> jobs;
  std::vector<RunResult> fresh;
  for (size_t i = 0; i <= tenants.size(); ++i) {
    fleet::FleetJob job;
    job.instance = &tenants[i % tenants.size()];
    job.options.num_resources = 4;
    job.options.cost_model.delta = 2;
    // A recording run is batch-ineligible: it falls back to a scalar session.
    job.options.record_schedule = i == tenants.size();
    jobs.push_back(job);
    DlruEdfPolicy policy;
    fresh.push_back(RunPolicy(*job.instance, policy, job.options));
  }

  size_t built = 0;
  fleet::FleetOptions options;
  options.num_shards = 1;
  options.batch_width = 64;
  options.policy_factory = [&built]() -> std::unique_ptr<SchedulerPolicy> {
    ++built;
    return std::make_unique<DlruEdfPolicy>();
  };
  fleet::FleetRunner runner(std::move(options));
  const std::vector<RunResult> got = runner.RunAll(jobs);
  for (size_t i = 0; i < jobs.size(); ++i) {
    ExpectSameRunResult(got[i], fresh[i], "tenant " + std::to_string(i));
  }
  const fleet::FleetStats stats = runner.stats();
  EXPECT_EQ(stats.batched_sessions, 3u);
  EXPECT_EQ(stats.fallback_sessions, 1u);
  EXPECT_EQ(built, jobs.size());
}

// ---- TickCore checkpoint layout -------------------------------------------

// A tenant evicted mid-run from one core and restored on another finishes
// bit-identical to an uninterrupted run — instance-fed, and streaming, where
// the source's state rides in the checkpoint after the engine's.
TEST(TickCore, EvictRestoreAcrossCoresIsBitIdentical) {
  const std::vector<workload::ColorSpec> specs = {
      {1, 0.4}, {2, 0.5}, {4, 0.5}, {8, 0.4}, {16, 0.3}};
  workload::PoissonOptions gen;
  gen.rounds = 96;
  gen.seed = 77;
  const Instance instance = MakePoisson(specs, gen);
  const workload::GeneratorSpec spec = workload::PoissonSpec(specs, gen);

  std::vector<fleet::FleetJob> jobs(2);
  jobs[0].instance = &instance;
  jobs[1].source_spec = &spec;
  for (fleet::FleetJob& job : jobs) {
    job.options.num_resources = 4;
    job.options.cost_model.delta = 2;
  }
  DlruEdfPolicy oracle_policy;
  const RunResult oracle = RunPolicy(instance, oracle_policy, jobs[0].options);

  fleet::TickCoreOptions core_options;
  core_options.policy_factory = [] {
    return std::make_unique<DlruEdfPolicy>();
  };
  core_options.rounds_per_tick = 8;
  fleet::TickCore from(core_options);
  fleet::TickCore to(core_options);
  std::vector<RunResult> results(jobs.size());
  fleet::ResultSink sink(results);

  from.Admit(0, jobs[0]);
  from.Admit(1, jobs[1]);
  for (int tick = 0; tick < 3; ++tick) from.Step(sink);
  ASSERT_EQ(from.sessions(), 2u);
  snapshot::Writer words;
  while (from.sessions() > 0) {
    const uint64_t tenant = from.tenant(0);
    from.Evict(0, &words);
    to.Restore(tenant, jobs[tenant], words.words());
  }
  EXPECT_EQ(from.live(), 0u);
  EXPECT_EQ(to.live(), 2u);
  while (to.live() > 0) to.Step(sink);

  ExpectSameRunResult(results[0], oracle, "instance-fed");
  ExpectSameRunResult(results[1], oracle, "streaming");
  EXPECT_EQ(to.stats().sessions_completed, 2u);
}

// ---- Pipeline session reuse ----------------------------------------------

TEST(PipelineSession, ReusedSessionMatchesFreeFunction) {
  reduce::PipelineSession session;
  for (uint64_t seed = 31; seed <= 35; ++seed) {
    Instance instance = FleetTenant(seed, 64);
    EngineOptions options;
    options.num_resources = 8;
    options.cost_model.delta = 3;
    reduce::PipelineResult fresh = reduce::SolveOnline(instance, options);
    const reduce::PipelineResult& reused = session.SolveOnline(instance,
                                                               options);
    EXPECT_EQ(reused.cost().reconfigurations, fresh.cost().reconfigurations)
        << seed;
    EXPECT_EQ(reused.cost().drops, fresh.cost().drops) << seed;
    EXPECT_EQ(reused.validation.executed, fresh.validation.executed) << seed;
    ExpectSameRunResult(reused.inner, fresh.inner,
                        "pipeline seed " + std::to_string(seed));
  }
  EXPECT_EQ(session.tenants_served(), 5u);
}

// ---- OnlineSolver reset-and-reuse ----------------------------------------

TEST(OnlineSolverSession, ResetAndReuseMatchesSolveOnline) {
  Instance instance = FleetTenant(41, 64);
  ASSERT_GT(instance.num_jobs(), 0u);

  EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 3;

  // Ground truth: the offline pipeline.
  auto pipeline = reduce::SolveOnline(instance, options);

  // Matching subcolor budgets so inner numbering is identical.
  auto varbatch = reduce::VarBatchInstance(instance);
  auto distribute = reduce::DistributeInstance(varbatch.transformed);
  std::vector<reduce::OnlineSolver::ColorSpec> colors;
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    colors.push_back(
        {instance.delay_bound(c), distribute.subcolors_per_color[c]});
  }

  reduce::OnlineSolver solver(colors, options);
  auto drive = [&](const Instance& inst) {
    std::vector<std::pair<ColorId, uint64_t>> arrivals;
    for (Round k = 0; k < inst.num_request_rounds(); ++k) {
      arrivals.clear();
      auto jobs = inst.jobs_in_round(k);
      size_t i = 0;
      while (i < jobs.size()) {
        ColorId c = jobs[i].color;
        uint64_t count = 0;
        while (i < jobs.size() && jobs[i].color == c) {
          ++count;
          ++i;
        }
        arrivals.emplace_back(c, count);
      }
      solver.Step(arrivals);
    }
    solver.Finish();
  };

  // Tenant 1: fresh solver equals the pipeline.
  drive(instance);
  EXPECT_EQ(solver.cost().drops, pipeline.cost().drops);
  EXPECT_EQ(solver.cost().reconfigurations,
            pipeline.cost().reconfigurations);
  const uint64_t executed1 = solver.executed();

  // Tenant 2: an empty stream (exercises state clearing on a served solver).
  solver.Reset();
  EXPECT_EQ(solver.current_round(), 0);
  for (int k = 0; k < 8; ++k) solver.Step({});
  solver.Finish();
  EXPECT_EQ(solver.cost().total(options.cost_model), 0u);

  // Tenant 3: the original workload again through the same solver object —
  // identical costs to the fresh run, so nothing leaked through Reset.
  solver.Reset();
  drive(instance);
  EXPECT_EQ(solver.cost().drops, pipeline.cost().drops);
  EXPECT_EQ(solver.cost().reconfigurations,
            pipeline.cost().reconfigurations);
  EXPECT_EQ(solver.executed(), executed1);
  EXPECT_EQ(solver.arrived(), instance.num_jobs());
}

}  // namespace
}  // namespace rrs
