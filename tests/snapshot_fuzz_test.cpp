// Randomized checkpoint-point differential fuzz for checkpoint/restore.
//
// Each iteration draws a random workload, engine shape, and a chain of
// random checkpoint rounds, snapshots the run at each cut, migrates it to a
// different engine + fresh policy object, and finishes — the final
// RunResult must be bit-identical to the uninterrupted run. Runs for every
// registry policy; a second fuzzer cuts reduce::OnlineSolver at a random
// round and checks every later round's outcome.
//
// Iteration count is capped for tier-1 speed and raised via the
// RRS_FUZZ_ITERS environment variable (the `nightly`-labeled registration
// and the sanitizer/TSan suites set it explicitly).
#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "reduce/distribute.h"
#include "reduce/online.h"
#include "reduce/varbatch.h"
#include "sched/registry.h"
#include "snapshot/codec.h"
#include "util/rng.h"
#include "workload/arrival_source.h"
#include "workload/memctrl.h"
#include "workload/scenarios.h"
#include "workload/source.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

int FuzzIters() {
  const char* env = std::getenv("RRS_FUZZ_ITERS");
  if (env != nullptr && std::atoi(env) > 0) return std::atoi(env);
  return 12;  // tier-1 cap; nightly/sanitize runs raise it
}

Instance FuzzInstance(Rng& rng) {
  std::vector<workload::ColorSpec> specs;
  const size_t num_colors = 2 + rng.NextBounded(6);
  for (size_t c = 0; c < num_colors; ++c) {
    workload::ColorSpec spec;
    spec.delay_bound = Round{1} << rng.NextBounded(5);
    spec.rate = 0.05 + (0.8 - 0.05) * rng.UniformDouble();
    specs.push_back(spec);
  }
  workload::PoissonOptions gen;
  gen.rounds = 16 + static_cast<Round>(rng.NextBounded(140));
  gen.seed = rng.Next();
  return MakePoisson(specs, gen);
}

EngineOptions FuzzOptions(Rng& rng) {
  EngineOptions options;
  // Multiple of 4 and >= 4 so the ΔLRU-EDF family's resource-split
  // precondition holds for every registry policy.
  options.num_resources = 4 * (1 + static_cast<uint32_t>(rng.NextBounded(3)));
  options.cost_model.delta = 1 + rng.NextBounded(5);
  // Occasionally run double-speed so checkpoints cover mini-round runs too.
  if (rng.Bernoulli(0.25)) options.mini_rounds_per_round = 2;
  return options;
}

void ExpectSameRunResult(const RunResult& got, const RunResult& want,
                         const std::string& label) {
  ASSERT_EQ(got.cost.reconfigurations, want.cost.reconfigurations) << label;
  ASSERT_EQ(got.cost.drops, want.cost.drops) << label;
  ASSERT_EQ(got.cost.weighted_drops, want.cost.weighted_drops) << label;
  ASSERT_EQ(got.executed, want.executed) << label;
  ASSERT_EQ(got.arrived, want.arrived) << label;
  ASSERT_EQ(got.rounds_simulated, want.rounds_simulated) << label;
  ASSERT_EQ(got.drops_per_color, want.drops_per_color) << label;
  ASSERT_EQ(got.telemetry.counters, want.telemetry.counters) << label;
}

// ---- Engine: chained random checkpoints, every registry policy -----------

class SnapshotFuzzEveryPolicy
    : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapshotFuzzEveryPolicy, ChainedRandomCheckpointsAreExact) {
  const std::string name = GetParam();
  Rng rng(0xf022 ^ std::hash<std::string>{}(name));
  const int iters = FuzzIters();

  for (int iter = 0; iter < iters; ++iter) {
    Instance instance = FuzzInstance(rng);
    EngineOptions options = FuzzOptions(rng);
    const std::string label =
        name + " iter " + std::to_string(iter);

    auto oracle_policy = MakePolicy(name);
    ASSERT_NE(oracle_policy, nullptr) << name;
    RunResult oracle = RunPolicy(instance, *oracle_policy, options);

    // 1-3 random checkpoint rounds, each migrating to the other engine.
    const int cuts = 1 + static_cast<int>(rng.NextBounded(3));
    Engine engines[2];
    engines[0].Reset(instance, options);
    auto policy = MakePolicy(name);
    engines[0].BeginRun(*policy);
    int active = 0;
    snapshot::Writer w;
    for (int cut = 0; cut < cuts; ++cut) {
      const Round at =
          1 + static_cast<Round>(rng.NextBounded(
                  static_cast<uint64_t>(instance.num_request_rounds())));
      if (at > engines[active].next_round()) {
        engines[active].StepRounds(at - engines[active].next_round());
      }
      w.Clear();
      engines[active].SnapshotRun(w);
      engines[active].AbortRun();
      active = 1 - active;
      engines[active].Reset(instance, options);
      policy = MakePolicy(name);
      snapshot::Reader r(w.words());
      engines[active].RestoreRun(*policy, r);
      ASSERT_TRUE(r.AtEnd()) << label;
    }
    while (engines[active].StepRounds(64)) {
    }
    RunResult resumed;
    engines[active].FinishRun(resumed);
    ExpectSameRunResult(resumed, oracle, label);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SnapshotFuzzEveryPolicy,
                         ::testing::ValuesIn(PolicyNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---- OnlineSolver: random cut, restored solver must emit the same rounds -

TEST(SnapshotFuzzOnline, RandomCutRestoresEmitIdenticalOutcomes) {
  Rng rng(0x57f0);
  const int iters = FuzzIters();

  for (int iter = 0; iter < iters; ++iter) {
    Instance instance = FuzzInstance(rng);
    EngineOptions options = FuzzOptions(rng);
    const std::string label = "iter " + std::to_string(iter);

    // Subcolor budgets as the offline pipeline's Distribute step derives
    // them, so no burst overflows its reservation.
    const std::vector<uint32_t> budgets =
        reduce::DistributeInstance(
            reduce::VarBatchInstance(instance).transformed)
            .subcolors_per_color;
    std::vector<reduce::OnlineSolver::ColorSpec> colors;
    for (ColorId c = 0; c < instance.num_colors(); ++c) {
      colors.push_back({instance.delay_bound(c), budgets[c]});
    }
    const Round cut = 1 + static_cast<Round>(rng.NextBounded(
                              static_cast<uint64_t>(
                                  instance.num_request_rounds())));

    std::vector<std::pair<ColorId, uint64_t>> arrivals;
    auto feed_round = [&](reduce::OnlineSolver& solver,
                          Round k) -> const RoundOutcome& {
      arrivals.clear();
      if (k < instance.num_request_rounds()) {
        for (const Job& job : instance.jobs_in_round(k)) {
          if (arrivals.empty() || arrivals.back().first != job.color) {
            arrivals.emplace_back(job.color, 0);
          }
          ++arrivals.back().second;
        }
      }
      return solver.Step(arrivals);
    };

    reduce::OnlineSolver original(colors, options);
    for (Round k = 0; k < cut; ++k) feed_round(original, k);

    snapshot::Writer w;
    original.SaveState(w);
    reduce::OnlineSolver restored(colors, options);
    snapshot::Reader r(w.words());
    restored.LoadState(r);
    ASSERT_TRUE(r.AtEnd()) << label;
    ASSERT_EQ(restored.current_round(), cut) << label;

    // Through the request rounds and the drain, round by round.
    for (Round k = cut; k < instance.num_request_rounds() ||
                        original.executed() + original.cost().drops <
                            original.arrived();
         ++k) {
      const RoundOutcome a = feed_round(original, k);
      const RoundOutcome& b = feed_round(restored, k);
      ASSERT_EQ(a.round, b.round) << label;
      ASSERT_EQ(a.reconfigs, b.reconfigs) << label << " round " << k;
      ASSERT_EQ(a.executions, b.executions) << label << " round " << k;
      ASSERT_EQ(a.drops, b.drops) << label << " round " << k;
    }
    original.Finish();
    restored.Finish();
    ASSERT_EQ(original.cost().reconfigurations,
              restored.cost().reconfigurations)
        << label;
    ASSERT_EQ(original.cost().drops, restored.cost().drops) << label;
    ASSERT_EQ(original.cost().weighted_drops, restored.cost().weighted_drops)
        << label;
    ASSERT_EQ(original.executed(), restored.executed()) << label;
    ASSERT_EQ(original.arrived(), restored.arrived()) << label;
  }
}

// ---- ArrivalSource: every family, random chained cuts ---------------------
//
// Draws a source of a random checkpointable family (a replayed Instance or
// any generator family), cuts it at random rounds with SaveState/LoadState
// onto a fresh source, and checks the restored source emits the identical
// remaining stream. Those state words are what the dist migration path
// ships.

std::function<std::unique_ptr<workload::ArrivalSource>()> FuzzSourceFactory(
    Rng& rng) {
  std::vector<workload::ColorSpec> specs;
  const size_t num_colors = 2 + rng.NextBounded(4);
  for (size_t c = 0; c < num_colors; ++c) {
    workload::ColorSpec spec;
    spec.delay_bound = Round{1} << rng.NextBounded(5);
    spec.rate = 0.05 + (0.8 - 0.05) * rng.UniformDouble();
    specs.push_back(spec);
  }
  const Round rounds = 16 + static_cast<Round>(rng.NextBounded(100));
  const uint64_t seed = rng.Next();
  // ArrivalSource::Family id: 0 a replayed Instance, 1 Poisson, 2 bursty,
  // 3 Zipf, 4 router, 5 datacenter, 6 memctrl. Batched and rate-limited
  // generators carry per-color batch windows across every cut.
  const uint64_t family = rng.NextBounded(7);
  const uint64_t batching = rng.NextBounded(3);
  const bool batched = batching == 1;
  const bool rate_limited = batching == 2;
  return [specs, rounds, seed, family, batched,
          rate_limited]() -> std::unique_ptr<workload::ArrivalSource> {
    std::vector<Round> delays;
    double total_rate = 0;
    for (const workload::ColorSpec& spec : specs) {
      delays.push_back(spec.delay_bound);
      total_rate += spec.rate;
    }
    const double per_color = total_rate / static_cast<double>(specs.size());
    switch (family) {
      case 0: {
        workload::PoissonOptions options;
        options.rounds = rounds;
        options.seed = seed;
        return workload::MakeOwnedInstanceSource(MakePoisson(specs, options));
      }
      case 1: {
        workload::PoissonOptions options;
        options.rounds = rounds;
        options.batched = batched;
        options.rate_limited = rate_limited;
        options.seed = seed;
        return workload::MakePoissonSource(specs, options);
      }
      case 2: {
        workload::BurstyOptions options;
        options.rounds = rounds;
        options.p_on_to_off = 0.15;
        options.p_off_to_on = 0.25;
        options.batched = batched;
        options.rate_limited = rate_limited;
        options.seed = seed;
        return workload::MakeBurstySource(specs, options);
      }
      case 3: {
        workload::ZipfOptions options;
        options.num_colors = specs.size();
        options.delay_choices = delays;
        options.jobs_per_round = total_rate;
        options.rounds = rounds;
        options.batched = batched;
        options.rate_limited = rate_limited;
        options.seed = seed;
        return workload::MakeZipfSource(options);
      }
      case 4: {
        std::vector<workload::RouterService> services;
        for (size_t c = 0; c < specs.size(); ++c) {
          services.push_back({"s" + std::to_string(c), specs[c].delay_bound,
                              specs[c].rate / 2, specs[c].rate * 2});
        }
        workload::RouterOptions options;
        options.rounds = rounds;
        options.period = 8 + rounds / 4;
        options.batched = batched;
        options.rate_limited = rate_limited;
        options.seed = seed;
        return workload::MakeRouterSource(std::move(services), options);
      }
      case 5: {
        workload::DatacenterOptions options;
        options.num_services = specs.size();
        options.delay_choices = delays;
        options.rounds = rounds;
        options.phase_length = 8 + rounds / 4;
        options.dominant_per_phase = 1;
        options.background_rate = per_color / 4;
        options.dominant_rate = 2 * per_color;
        options.batched = batched;
        options.rate_limited = rate_limited;
        options.seed = seed;
        return workload::MakeDatacenterSource(options);
      }
      default: {
        workload::MemctrlOptions options;
        options.num_ranks = specs.size() > 3 ? 2 : 1;
        options.banks_per_rank = 2;
        options.delay_choices = delays;
        options.rounds = rounds;
        options.burst_rate = 2 * per_color;
        options.idle_rate = per_color / 4;
        options.refresh_period = 16;
        options.refresh_length = 3;
        options.batched = batched;
        options.rate_limited = rate_limited;
        options.seed = seed;
        return workload::MakeMemctrlSource(options);
      }
    }
  };
}

TEST(SnapshotFuzzSource, ChainedRandomCutsEmitIdenticalStreams) {
  Rng rng(0x50a7);
  const int iters = FuzzIters();
  for (int iter = 0; iter < iters; ++iter) {
    const std::string label = "iter " + std::to_string(iter);
    auto make = FuzzSourceFactory(rng);
    auto original = make();
    auto restored = make();
    const int cuts = 1 + static_cast<int>(rng.NextBounded(3));
    snapshot::Writer w;
    for (int cut = 0; cut < cuts; ++cut) {
      const Round total = original->num_request_rounds();
      if (original->cursor() < total) {
        const Round at =
            original->cursor() +
            1 + static_cast<Round>(rng.NextBounded(static_cast<uint64_t>(
                    total - original->cursor())));
        while (original->cursor() < at) original->NextRound();
      }
      w.Clear();
      original->SaveState(w);
      snapshot::Reader r(w.words());
      restored->LoadState(r);
      ASSERT_TRUE(r.AtEnd()) << label;
      ASSERT_EQ(restored->cursor(), original->cursor()) << label;
    }
    while (original->cursor() < original->num_request_rounds()) {
      const Round k = original->cursor();
      const auto a = original->NextRound();
      const auto b = restored->NextRound();
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << label << " round " << k;
    }
  }
}

// ---- Engine + source: the dist migration format under fuzz ---------------
//
// A source-fed engine run snapshotted at random cuts, each cut migrating to
// a different engine AND a fresh source restored from the appended source
// words (RestoreRun(policy, r, &r)) — exactly what a dist worker does with
// a shipped tenant checkpoint.

TEST(SnapshotFuzzSource, EngineMigrationWithSourceWordsIsExact) {
  Rng rng(0x50a8);
  const int iters = FuzzIters();
  const std::vector<std::string> policies = PolicyNames();
  for (int iter = 0; iter < iters; ++iter) {
    auto make = FuzzSourceFactory(rng);
    EngineOptions options = FuzzOptions(rng);
    std::string name = policies[rng.NextBounded(policies.size())];
    if (name == "lookahead") name = "dlru-edf";  // needs a full-job shape
    const std::string label = name + " iter " + std::to_string(iter);

    auto oracle_source = make();
    auto oracle_policy = MakePolicy(name);
    Engine oracle_engine;
    oracle_engine.Reset(*oracle_source, options);
    const RunResult oracle = oracle_engine.Run(*oracle_policy);

    std::unique_ptr<workload::ArrivalSource> sources[2] = {make(), make()};
    Engine engines[2];
    engines[0].Reset(*sources[0], options);
    auto policy = MakePolicy(name);
    engines[0].BeginRun(*policy);
    int active = 0;
    snapshot::Writer w;
    const int cuts = 1 + static_cast<int>(rng.NextBounded(3));
    for (int cut = 0; cut < cuts; ++cut) {
      const Round at = 1 + static_cast<Round>(rng.NextBounded(
                               static_cast<uint64_t>(std::max<Round>(
                                   sources[active]->num_request_rounds(), 1))));
      if (at > engines[active].next_round()) {
        engines[active].StepRounds(at - engines[active].next_round());
      }
      w.Clear();
      engines[active].SnapshotRun(w);
      sources[active]->SaveState(w);
      engines[active].AbortRun();
      active = 1 - active;
      sources[active] = make();
      engines[active].Reset(*sources[active], options);
      policy = MakePolicy(name);
      snapshot::Reader r(w.words());
      engines[active].RestoreRun(*policy, r, &r);
      ASSERT_TRUE(r.AtEnd()) << label;
    }
    while (engines[active].StepRounds(64)) {
    }
    RunResult resumed;
    engines[active].FinishRun(resumed);
    ExpectSameRunResult(resumed, oracle, label);
  }
}

}  // namespace
}  // namespace rrs
