// Batched-vs-scalar differential suite: a tenant run on a BatchEngine lane
// must be bit-identical to the same tenant on a scalar Engine — for every
// registry policy (fused ΔLRU-EDF lanes and generic virtual-hook lanes),
// every slab width, mid-slab completion, slab reuse after reset, lane
// snapshot/restore interop with scalar snapshots at tick cuts, and through
// the FleetRunner at 0/1/2/8 threads.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/job_ring.h"
#include "fleet/batch_engine.h"
#include "fleet/fleet_runner.h"
#include "parallel/thread_pool.h"
#include "sched/dlru_edf.h"
#include "sched/registry.h"
#include "snapshot/codec.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

Instance BatchTenant(uint64_t seed, Round rounds = 96) {
  std::vector<workload::ColorSpec> specs = {
      {1, 0.4}, {2, 0.5}, {4, 0.5}, {8, 0.4}, {16, 0.3}};
  workload::PoissonOptions gen;
  gen.rounds = rounds;
  gen.seed = seed;
  return MakePoisson(specs, gen);
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
  EXPECT_EQ(got.telemetry.counters, want.telemetry.counters) << label;
}

EngineOptions BatchOptions(uint32_t resources = 8, uint64_t delta = 2) {
  EngineOptions options;
  options.num_resources = resources;
  options.cost_model.delta = delta;
  return options;
}

// ---- Every registry policy, every slab width -----------------------------

TEST(BatchEngineDifferential, EveryRegistryPolicyEveryWidthMatchesScalar) {
  constexpr size_t kTenants = 16;
  std::vector<Instance> tenants;
  for (uint64_t seed = 0; seed < kTenants; ++seed) {
    tenants.push_back(BatchTenant(500 + seed));
  }
  const EngineOptions options = BatchOptions();

  for (const std::string& name : PolicyNames()) {
    std::vector<RunResult> fresh;
    for (const Instance& tenant : tenants) {
      auto policy = MakePolicy(name);
      ASSERT_NE(policy, nullptr) << name;
      fresh.push_back(RunPolicy(tenant, *policy, options));
    }

    for (uint32_t width : {1u, 7u, 8u, 16u}) {
      fleet::BatchEngine slab(width);
      const uint32_t lanes = std::min<uint32_t>(width, kTenants);
      std::vector<std::unique_ptr<SchedulerPolicy>> policies;
      for (uint32_t lane = 0; lane < lanes; ++lane) {
        policies.push_back(MakePolicy(name));
        slab.OpenLane(lane, tenants[lane], options, *policies[lane]);
      }
      while (slab.StepRounds(17)) {
      }
      for (uint32_t lane = 0; lane < lanes; ++lane) {
        ASSERT_TRUE(slab.lane_done(lane));
        RunResult got;
        slab.FinishLane(lane, got);
        ExpectSameRunResult(got, fresh[lane],
                            name + " width " + std::to_string(width) +
                                " lane " + std::to_string(lane));
      }
      EXPECT_TRUE(slab.empty());
      EXPECT_EQ(slab.next_round(), 0);
    }
  }
}

// ---- Mixed fused and generic lanes, per-lane parameters ------------------

TEST(BatchEngineDifferential, MixedPoliciesAndParamsShareOneSlab) {
  std::vector<Instance> tenants;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    tenants.push_back(BatchTenant(600 + seed));
  }
  const EngineOptions options = BatchOptions();

  // Lane 0/1: stock ΔLRU-EDF (fused). Lane 2: random-evict ablation (fused,
  // full scalar sequence every mini-round for RNG stream identity). Lane 3:
  // a different LRU split (fused, distinct per-lane lru_capacity). Lane 4/5:
  // generic registry policies on the same slab.
  DlruEdfPolicy::Params random_params;
  random_params.random_evict = true;
  DlruEdfPolicy::Params split_params;
  split_params.lru_den = 8;  // LRU side 1 of 4 primary slots (default is 2)
  std::vector<std::unique_ptr<SchedulerPolicy>> policies;
  policies.push_back(std::make_unique<DlruEdfPolicy>());
  policies.push_back(std::make_unique<DlruEdfPolicy>());
  policies.push_back(std::make_unique<DlruEdfPolicy>(random_params));
  policies.push_back(std::make_unique<DlruEdfPolicy>(split_params));
  policies.push_back(MakePolicy("dlru"));
  policies.push_back(MakePolicy("edf"));
  ASSERT_NE(policies[4], nullptr);
  ASSERT_NE(policies[5], nullptr);

  std::vector<RunResult> fresh;
  fresh.push_back(RunPolicy(tenants[0], *std::make_unique<DlruEdfPolicy>(),
                            options));
  fresh.push_back(RunPolicy(tenants[1], *std::make_unique<DlruEdfPolicy>(),
                            options));
  fresh.push_back(RunPolicy(
      tenants[2], *std::make_unique<DlruEdfPolicy>(random_params), options));
  fresh.push_back(RunPolicy(
      tenants[3], *std::make_unique<DlruEdfPolicy>(split_params), options));
  {
    auto p = MakePolicy("dlru");
    fresh.push_back(RunPolicy(tenants[4], *p, options));
  }
  {
    auto p = MakePolicy("edf");
    fresh.push_back(RunPolicy(tenants[5], *p, options));
  }

  fleet::BatchEngine slab(8);
  for (uint32_t lane = 0; lane < 6; ++lane) {
    slab.OpenLane(lane, tenants[lane], options, *policies[lane]);
  }
  EXPECT_EQ(slab.fused_lane_opens(), 4u);
  EXPECT_EQ(slab.generic_lane_opens(), 2u);
  while (slab.StepRounds(13)) {
  }
  for (uint32_t lane = 0; lane < 6; ++lane) {
    RunResult got;
    slab.FinishLane(lane, got);
    ExpectSameRunResult(got, fresh[lane], "mixed lane " + std::to_string(lane));
  }
}

// ---- Mid-slab completion, compaction, and slab reuse after reset ---------

TEST(BatchEngine, LanesFinishAtTheirOwnHorizonsAndSlabResets) {
  const Round horizons[] = {24, 96, 48, 72};
  std::vector<Instance> tenants;
  for (size_t i = 0; i < 4; ++i) {
    tenants.push_back(BatchTenant(700 + i, horizons[i]));
  }
  const EngineOptions options = BatchOptions();

  std::vector<RunResult> fresh;
  for (const Instance& tenant : tenants) {
    DlruEdfPolicy policy;
    fresh.push_back(RunPolicy(tenant, policy, options));
  }

  fleet::BatchEngine slab(4);
  std::vector<std::unique_ptr<SchedulerPolicy>> policies;
  for (uint32_t lane = 0; lane < 4; ++lane) {
    policies.push_back(std::make_unique<DlruEdfPolicy>());
    slab.OpenLane(lane, tenants[lane], options, *policies[lane]);
  }

  // Finish lanes the moment they complete, while others keep stepping — the
  // short lanes leave mid-slab and the slab keeps advancing the rest.
  std::vector<bool> finished(4, false);
  size_t finished_count = 0;
  bool more = true;
  while (more) {
    more = slab.StepRounds(8);
    for (uint32_t lane = 0; lane < 4; ++lane) {
      if (finished[lane] || !slab.lane_done(lane)) continue;
      RunResult got;
      slab.FinishLane(lane, got);
      ExpectSameRunResult(got, fresh[lane],
                          "staggered lane " + std::to_string(lane));
      finished[lane] = true;
      ++finished_count;
    }
  }
  EXPECT_EQ(finished_count, 4u);
  EXPECT_TRUE(slab.empty());
  EXPECT_EQ(slab.next_round(), 0);

  // Reuse the same slab for a second set of tenants (Session rule 3): the
  // reused arena and policies produce bit-identical results.
  std::vector<Instance> second;
  for (size_t i = 0; i < 4; ++i) {
    second.push_back(BatchTenant(710 + i, 64));
  }
  for (uint32_t lane = 0; lane < 4; ++lane) {
    slab.OpenLane(lane, second[lane], options, *policies[lane]);
  }
  while (slab.StepRounds(8)) {
  }
  for (uint32_t lane = 0; lane < 4; ++lane) {
    DlruEdfPolicy policy;
    RunResult want = RunPolicy(second[lane], policy, options);
    RunResult got;
    slab.FinishLane(lane, got);
    ExpectSameRunResult(got, want, "reused lane " + std::to_string(lane));
  }
}

// ---- Snapshot/restore interop with the scalar Engine ---------------------

TEST(BatchSnapshot, LaneSnapshotBytesEqualScalarSnapshot) {
  Instance tenant = BatchTenant(800);
  Instance neighbor = BatchTenant(801);
  const EngineOptions options = BatchOptions();
  constexpr Round kCut = 40;

  Engine engine(tenant, options);
  DlruEdfPolicy scalar_policy;
  engine.BeginRun(scalar_policy);
  engine.StepRounds(kCut);
  snapshot::Writer scalar_words;
  engine.SnapshotRun(scalar_words);
  engine.AbortRun();

  // The lane shares its slab (and wheel) with a neighbor; its snapshot must
  // still come out byte-identical to the scalar session's.
  fleet::BatchEngine slab(8);
  DlruEdfPolicy lane_policy;
  DlruEdfPolicy neighbor_policy;
  slab.OpenLane(2, tenant, options, lane_policy);
  slab.OpenLane(5, neighbor, options, neighbor_policy);
  slab.StepRounds(kCut);
  snapshot::Writer lane_words;
  slab.SnapshotLane(2, lane_words);

  EXPECT_EQ(lane_words.words(), scalar_words.words());
}

TEST(BatchSnapshot, LaneSnapshotRestoresIntoScalarEngine) {
  Instance tenant = BatchTenant(810);
  Instance neighbor = BatchTenant(811);
  const EngineOptions options = BatchOptions();

  DlruEdfPolicy oracle_policy;
  RunResult want = RunPolicy(tenant, oracle_policy, options);

  fleet::BatchEngine slab(4);
  DlruEdfPolicy lane_policy;
  DlruEdfPolicy neighbor_policy;
  slab.OpenLane(0, tenant, options, lane_policy);
  slab.OpenLane(1, neighbor, options, neighbor_policy);
  slab.StepRounds(32);
  snapshot::Writer words;
  slab.SnapshotLane(0, words);

  Engine engine(tenant, options);
  DlruEdfPolicy restored_policy;
  snapshot::Reader reader(words.words());
  engine.RestoreRun(restored_policy, reader);
  while (engine.StepRounds(16)) {
  }
  RunResult got;
  engine.FinishRun(got);
  ExpectSameRunResult(got, want, "lane→scalar restore");
}

TEST(BatchSnapshot, ScalarSnapshotsRestoreIntoLanesAtATickCut) {
  std::vector<Instance> tenants = {BatchTenant(820), BatchTenant(821),
                                   BatchTenant(822)};
  const EngineOptions options = BatchOptions();
  constexpr Round kCut = 24;

  std::vector<RunResult> want;
  std::vector<snapshot::Writer> words(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    DlruEdfPolicy policy;
    want.push_back(RunPolicy(tenants[i], policy, options));

    Engine engine(tenants[i], options);
    DlruEdfPolicy cut_policy;
    engine.BeginRun(cut_policy);
    engine.StepRounds(kCut);
    engine.SnapshotRun(words[i]);
    engine.AbortRun();
  }

  // Restore all three mid-run scalar sessions into one slab (the first
  // restore sets the slab's round) and run the rest batched.
  fleet::BatchEngine slab(8);
  std::vector<std::unique_ptr<DlruEdfPolicy>> policies;
  for (size_t i = 0; i < tenants.size(); ++i) {
    policies.push_back(std::make_unique<DlruEdfPolicy>());
    snapshot::Reader reader(words[i].words());
    slab.RestoreLane(static_cast<uint32_t>(i), tenants[i], options,
                     *policies[i], reader);
  }
  EXPECT_EQ(slab.next_round(), kCut);
  while (slab.StepRounds(16)) {
  }
  for (size_t i = 0; i < tenants.size(); ++i) {
    RunResult got;
    slab.FinishLane(static_cast<uint32_t>(i), got);
    ExpectSameRunResult(got, want[i],
                        "scalar→lane restore " + std::to_string(i));
  }
}

TEST(BatchSnapshotDeath, RestoreLaneRejectsOutOfRangeNonidleColor) {
  // A checkpoint with a valid checksum whose nonidle color lies past the
  // color table must die in RestoreLane, as it does in Engine::RestoreRun,
  // not index past the per-color arrays on the next step.
  std::vector<workload::ColorSpec> specs = {{1, 0.4}, {2, 0.5}, {4, 0.5}};
  workload::PoissonOptions gen;
  gen.rounds = 32;
  gen.seed = 13;
  const Instance instance = MakePoisson(specs, gen);
  const EngineOptions options = BatchOptions();

  Engine engine(instance, options);
  auto policy = MakePolicy("greedy-edf");
  engine.BeginRun(*policy);
  engine.StepRounds(5);
  snapshot::Writer w;
  engine.SnapshotRun(w);
  engine.AbortRun();

  // [magic][version][tag][payload words][checksum], then the engine payload:
  // colors, resources, round, resource colors, one ring per color, pending
  // counts, and the nonidle list. Walk to the list's count word.
  std::vector<uint64_t> words = w.words();
  constexpr size_t kPayload = 5;
  ASSERT_EQ(words[2], snapshot::kTagEngine);
  size_t nonidle_at = 0;
  {
    snapshot::Reader r(words);
    r.BeginSection(snapshot::kTagEngine);
    r.GetU64();
    r.GetU32();
    r.GetI64();
    std::vector<ColorId> resource_colors;
    r.GetVec(resource_colors);
    JobRing ring;
    for (size_t c = 0; c < instance.num_colors(); ++c) ring.LoadState(r);
    std::vector<uint64_t> pending;
    r.GetVec(pending);
    nonidle_at = kPayload + words[3] - r.remaining();
  }
  ASSERT_GE(words[nonidle_at], 1u) << "no nonidle color at the cut";
  words[nonidle_at + 1] = 1000;
  words[4] = snapshot::FnvWords(
      std::span<const uint64_t>(words).subspan(kPayload, words[3]));

  fleet::BatchEngine slab(8);
  auto lane_policy = MakePolicy("greedy-edf");
  snapshot::Reader r(words);
  EXPECT_DEATH(slab.RestoreLane(0, instance, options, *lane_policy, r),
               "nonidle color out of range");
}

TEST(BatchSnapshotDeath, RestoreLaneRejectsRingDeadlinesOutsideTheLiveWindow) {
  // The lane restore runs the same codec checks as Engine::RestoreRun: ring
  // deadlines shifted out of [k, k + D_c - 1] (checksum re-sealed) die in
  // RestoreLane instead of leaving jobs that never expire.
  workload::PoissonOptions gen;
  gen.rounds = 64;
  gen.seed = 5;
  const Instance instance =
      MakePoisson({{4, 2.5}, {8, 2.5}, {16, 2.5}}, gen);
  const EngineOptions options = BatchOptions(4, 2);
  constexpr Round kCut = 20;

  Engine engine(instance, options);
  auto policy = MakePolicy("dlru-edf");
  engine.BeginRun(*policy);
  engine.StepRounds(kCut);
  snapshot::Writer w;
  engine.SnapshotRun(w);
  engine.AbortRun();

  // [magic][version][tag][payload words][checksum], then the engine payload:
  // colors, resources, round, resource colors, then color 0's ring: its
  // count, its job ids and its deadlines.
  constexpr size_t kPayload = 5;
  ASSERT_EQ(w.words()[2], snapshot::kTagEngine);
  const size_t ring_at = kPayload + 3 + 1 + options.num_resources;
  const uint64_t jobs = w.words()[ring_at];
  ASSERT_GE(jobs, 1u) << "color 0 has nothing pending at the cut";
  for (const int64_t shift : {-5, 3}) {
    std::vector<uint64_t> words = w.words();
    for (uint64_t i = 0; i < jobs; ++i) {
      const size_t at = ring_at + 1 + jobs + i;
      words[at] = static_cast<uint64_t>(static_cast<Round>(words[at]) + shift);
    }
    words[4] = snapshot::FnvWords(
        std::span<const uint64_t>(words).subspan(kPayload, words[3]));
    fleet::BatchEngine slab(8);
    auto lane_policy = MakePolicy("dlru-edf");
    snapshot::Reader r(words);
    EXPECT_DEATH(slab.RestoreLane(0, instance, options, *lane_policy, r),
                 "ring deadline")
        << "shift " << shift;
  }
}

// ---- FleetRunner batched path, 0/1/2/8 threads ---------------------------

class BatchFleetDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchFleetDifferential, BatchedFleetMatchesFreshEngines) {
  const size_t threads = GetParam();
  constexpr size_t kTenants = 32;

  std::vector<Instance> tenants;
  for (size_t i = 0; i < kTenants; ++i) {
    tenants.push_back(BatchTenant(900 + i));
  }
  std::vector<fleet::FleetJob> jobs;
  std::vector<RunResult> fresh;
  size_t eligible = 0;
  size_t fallback = 0;
  for (size_t i = 0; i < kTenants; ++i) {
    fleet::FleetJob job;
    job.instance = &tenants[i];
    // Two shape groups (different resource counts) so slabs must sort
    // tenants by shape; every 7th job records a schedule and must fall back
    // to a scalar session.
    job.options.num_resources = i % 2 == 0 ? 8 : 4;
    job.options.cost_model.delta = 2;
    job.options.record_schedule = i % 7 == 0;
    jobs.push_back(job);
    if (job.options.record_schedule) {
      ++fallback;
    } else {
      ++eligible;
    }

    DlruEdfPolicy policy;
    fresh.push_back(RunPolicy(tenants[i], policy, job.options));
  }

  std::unique_ptr<ThreadPool> pool;
  fleet::FleetOptions options;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads);
    options.pool = pool.get();
  }
  options.num_shards = 3;
  options.rounds_per_tick = 16;
  options.batch_width = 8;
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
  EXPECT_EQ(stats.batched_sessions, eligible);
  EXPECT_EQ(stats.fallback_sessions, fallback);
  EXPECT_GT(stats.lane_rounds_stepped, 0u);
  EXPECT_GT(stats.slab_rounds_stepped, 0u);
  EXPECT_GE(stats.lane_rounds_stepped, stats.slab_rounds_stepped);

  // Warm rerun through the same runner: still bit-identical, slab pools
  // grew only on the first fleet.
  std::vector<RunResult> again = runner.RunAll(jobs);
  for (size_t i = 0; i < kTenants; ++i) {
    ExpectSameRunResult(again[i], fresh[i],
                        "rerun tenant " + std::to_string(i));
  }
  const fleet::FleetStats warm = runner.stats();
  EXPECT_EQ(warm.sessions_created, stats.sessions_created);
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchFleetDifferential,
                         ::testing::Values(0u, 1u, 2u, 8u));

TEST(BatchFleet, LiveCapCountsLanes) {
  constexpr size_t kTenants = 16;
  std::vector<Instance> tenants;
  std::vector<fleet::FleetJob> jobs;
  std::vector<RunResult> fresh;
  for (size_t i = 0; i < kTenants; ++i) {
    tenants.push_back(BatchTenant(950 + i, 48));
  }
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
  options.max_live_sessions = 6;
  options.rounds_per_tick = 8;
  options.batch_width = 4;
  fleet::FleetRunner runner(std::move(options));
  std::vector<RunResult> got = runner.RunAll(jobs);
  for (size_t i = 0; i < kTenants; ++i) {
    ExpectSameRunResult(got[i], fresh[i], "capped tenant " + std::to_string(i));
  }
  const fleet::FleetStats stats = runner.stats();
  EXPECT_LE(stats.peak_live_sessions, 6u);
  EXPECT_EQ(stats.sessions_completed, kTenants);
  EXPECT_EQ(stats.batched_sessions, kTenants);
}

}  // namespace
}  // namespace rrs
