// Differential fuzzing across random instance *shapes*: random color tables
// (delay bounds including non-powers-of-two and D = 1, drop weights), random
// arrival patterns — then cross-check independent implementations against
// each other: DP vs brute force, the ring engine vs the reference engine
// (including double speed), pipeline projections vs the validator, and
// bounds vs exact optima.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/reference_engine.h"
#include "offline/bruteforce.h"
#include "offline/clairvoyant.h"
#include "offline/lower_bound.h"
#include "offline/optimal.h"
#include "reduce/pipeline.h"
#include "sched/registry.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

// Random instance with 1-4 colors, delay bounds drawn from a wide palette
// (including 1, non-powers-of-two, and large), optional drop weights, and
// jobs scattered over a short horizon.
Instance RandomShape(Rng& rng, bool weighted, Round max_rounds = 10,
                     uint64_t max_jobs = 14) {
  InstanceBuilder b;
  const size_t colors = 1 + rng.NextBounded(4);
  static const Round kDelays[] = {1, 2, 3, 4, 5, 7, 8, 12, 16};
  for (size_t c = 0; c < colors; ++c) {
    Round d = kDelays[rng.NextBounded(sizeof(kDelays) / sizeof(Round))];
    uint64_t w = weighted ? 1 + rng.NextBounded(5) : 1;
    b.AddColor(d, "", w);
  }
  const uint64_t jobs = 1 + rng.NextBounded(max_jobs);
  for (uint64_t j = 0; j < jobs; ++j) {
    b.AddJob(static_cast<ColorId>(rng.NextBounded(colors)),
             static_cast<Round>(rng.NextBounded(
                 static_cast<uint64_t>(max_rounds))));
  }
  return b.Build();
}

// Cross-checks the ring-based Engine against the retained deque-based
// reference engine on one instance: exact equality of drops, weighted drops,
// reconfigurations, and executed jobs.
void ExpectEngineMatchesReference(const Instance& inst,
                                  const std::string& policy,
                                  const EngineOptions& options,
                                  const std::string& label) {
  auto engine_policy = MakePolicy(policy);
  RunResult fast = RunPolicy(inst, *engine_policy, options);

  auto reference_policy = MakePolicy(policy);
  RunResult oracle = RunPolicyReference(inst, *reference_policy, options);

  ASSERT_EQ(fast.cost.drops, oracle.cost.drops) << label;
  ASSERT_EQ(fast.cost.weighted_drops, oracle.cost.weighted_drops) << label;
  ASSERT_EQ(fast.cost.reconfigurations, oracle.cost.reconfigurations) << label;
  ASSERT_EQ(fast.executed, oracle.executed) << label;
  ASSERT_EQ(fast.arrived, oracle.arrived) << label;
}

// ≥600 randomized Poisson instances across policies, resource counts, Δ, and
// single/double speed.
TEST(Differential, EnginesAgreeOnRandomizedPoisson) {
  static const char* kPolicies[] = {"dlru-edf", "dlru",       "edf",
                                    "seq-edf",  "greedy-edf", "static"};
  static const Round kDelays[] = {1, 2, 3, 4, 5, 8, 16};
  Rng rng(2027);
  for (int trial = 0; trial < 600; ++trial) {
    const size_t colors = 1 + rng.NextBounded(6);
    std::vector<workload::ColorSpec> specs;
    for (size_t c = 0; c < colors; ++c) {
      specs.push_back({kDelays[rng.NextBounded(7)],
                       0.1 + 0.2 * static_cast<double>(rng.NextBounded(5))});
    }
    workload::PoissonOptions gen;
    gen.rounds = 10 + static_cast<Round>(rng.NextBounded(30));
    gen.rate_limited = trial % 2 == 0;
    gen.seed = rng.Next();
    Instance inst = MakePoisson(specs, gen);
    if (inst.num_jobs() == 0) continue;

    EngineOptions options;
    options.num_resources = 4 + 4 * static_cast<uint32_t>(trial % 2);
    options.mini_rounds_per_round = 1 + trial % 2;
    options.cost_model.delta = 1 + trial % 5;

    const std::string policy = kPolicies[trial % 6];
    ExpectEngineMatchesReference(
        inst, policy, options,
        "poisson trial " + std::to_string(trial) + " policy " + policy);
  }
}

// ≥500 adversarial instances: phase-structured bursts that rotate the hot
// color set every few rounds (the thrash pattern the ΔLRU side exists for),
// deadline-edge stragglers, and occasional weighted drop costs.
TEST(Differential, EnginesAgreeOnAdversarialBursts) {
  static const char* kPolicies[] = {"dlru-edf", "dlru", "edf", "greedy-edf",
                                    "lazy-greedy"};
  Rng rng(2029);
  for (int trial = 0; trial < 500; ++trial) {
    const bool weighted = trial % 4 == 0;
    InstanceBuilder b;
    const size_t colors = 2 + rng.NextBounded(4);
    std::vector<Round> delay(colors);
    for (size_t c = 0; c < colors; ++c) {
      delay[c] = Round{1} << rng.NextBounded(5);  // powers of two, 1..16
      b.AddColor(delay[c], "", weighted ? 1 + rng.NextBounded(5) : 1);
    }
    const Round horizon = 12 + static_cast<Round>(rng.NextBounded(24));
    // Rotating bursts: each phase floods one color, starving the previous
    // one right as its delay bound expires.
    const Round stride = 1 + static_cast<Round>(rng.NextBounded(4));
    for (Round k = 0; k < horizon; k += stride) {
      const ColorId hot = static_cast<ColorId>(
          (static_cast<size_t>(k / stride)) % colors);
      b.AddJobs(hot, k, 1 + rng.NextBounded(12));
      // Deadline-edge straggler on another color.
      if (rng.NextBounded(2) == 0) {
        const ColorId c = static_cast<ColorId>(rng.NextBounded(colors));
        b.AddJob(c, k);
      }
    }
    Instance inst = b.Build();

    EngineOptions options;
    options.num_resources = 4 + static_cast<uint32_t>(rng.NextBounded(5));
    options.mini_rounds_per_round = 1 + trial % 2;
    options.cost_model.delta = 1 + trial % 4;

    const std::string policy = kPolicies[trial % 5];
    ExpectEngineMatchesReference(
        inst, policy, options,
        "adversarial trial " + std::to_string(trial) + " policy " + policy);
  }
}

TEST(Differential, DpMatchesBruteForceAcrossShapes) {
  Rng rng(1009);
  int checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    bool weighted = trial % 3 == 0;
    Instance inst = RandomShape(rng, weighted, /*max_rounds=*/7,
                                /*max_jobs=*/10);
    const uint32_t m = 1 + static_cast<uint32_t>(trial % 2);
    const uint64_t delta = 1 + trial % 4;

    offline::OptimalOptions dp_options;
    dp_options.num_resources = m;
    dp_options.cost_model.delta = delta;
    auto dp = offline::SolveOptimal(inst, dp_options);
    ASSERT_TRUE(dp.exact) << "trial " << trial;

    offline::BruteForceOptions bf_options;
    bf_options.num_resources = m;
    bf_options.cost_model.delta = delta;
    auto bf = offline::SolveBruteForce(inst, bf_options);
    if (!bf.has_value()) continue;  // node budget
    EXPECT_EQ(dp.total_cost, *bf)
        << "trial " << trial << " m=" << m << " delta=" << delta
        << (weighted ? " weighted" : "") << "\n"
        << inst.Summary();
    ++checked;
  }
  EXPECT_GE(checked, 30);
}

TEST(Differential, BoundsBracketExactOptimumAcrossShapes) {
  Rng rng(1013);
  for (int trial = 0; trial < 40; ++trial) {
    bool weighted = trial % 2 == 0;
    Instance inst = RandomShape(rng, weighted, 8, 12);
    const uint32_t m = 1;
    const uint64_t delta = 1 + trial % 5;
    CostModel model{delta};

    offline::OptimalOptions options;
    options.num_resources = m;
    options.cost_model = model;
    auto opt = offline::SolveOptimal(inst, options);
    ASSERT_TRUE(opt.exact);

    EXPECT_LE(offline::LowerBound(inst, m, model), opt.total_cost)
        << "trial " << trial;
    EXPECT_GE(offline::ClairvoyantCost(inst, m, model).total_cost,
              opt.total_cost)
        << "trial " << trial;
  }
}

TEST(Differential, ReconstructionMatchesDpAcrossShapes) {
  Rng rng(1019);
  for (int trial = 0; trial < 25; ++trial) {
    Instance inst = RandomShape(rng, trial % 4 == 0, 8, 12);
    const uint64_t delta = 1 + trial % 3;
    offline::OptimalOptions options;
    options.num_resources = 2;
    options.cost_model.delta = delta;
    options.reconstruct_schedule = true;
    auto result = offline::SolveOptimal(inst, options);
    ASSERT_TRUE(result.exact && result.schedule.has_value());
    auto v = result.schedule->Validate(inst);
    ASSERT_TRUE(v.ok) << "trial " << trial << ": " << v.error;
    EXPECT_EQ(v.cost.total(CostModel{delta}), result.total_cost)
        << "trial " << trial;
  }
}

TEST(Differential, PipelineValidatesAcrossShapes) {
  Rng rng(1031);
  for (int trial = 0; trial < 30; ++trial) {
    Instance inst = RandomShape(rng, false, 30, 50);
    EngineOptions options;
    options.num_resources = 4 + 4 * static_cast<uint32_t>(trial % 3);
    options.cost_model.delta = 1 + trial % 5;
    auto result = reduce::SolveOnline(inst, options);
    ASSERT_TRUE(result.validation.ok)
        << "trial " << trial << ": " << result.validation.error << "\n"
        << inst.Summary();
    EXPECT_EQ(result.validation.executed + result.cost().drops,
              inst.num_jobs());
  }
}

TEST(Differential, AllPoliciesHandleDegenerateShapes) {
  // Single job; all-same-round bursts; one color only; horizon-1 instances.
  std::vector<Instance> shapes;
  {
    InstanceBuilder b;
    b.AddJob(b.AddColor(1), 0);
    shapes.push_back(b.Build());
  }
  {
    InstanceBuilder b;
    ColorId c = b.AddColor(4);
    b.AddJobs(c, 0, 50);
    shapes.push_back(b.Build());
  }
  {
    InstanceBuilder b;
    ColorId c = b.AddColor(16);
    b.AddJob(c, 100);  // late lone arrival
    shapes.push_back(b.Build());
  }
  for (const Instance& inst : shapes) {
    for (const std::string& name : PolicyNames()) {
      auto policy = MakePolicy(name);
      EngineOptions options;
      options.num_resources = 8;
      options.cost_model.delta = 3;
      options.record_schedule = true;
      RunResult r = RunPolicy(inst, *policy, options);
      ASSERT_TRUE(r.schedule.has_value());
      auto v = r.schedule->Validate(inst);
      EXPECT_TRUE(v.ok) << name << ": " << v.error;
      EXPECT_EQ(v.cost, r.cost) << name;
    }
  }
}

}  // namespace
}  // namespace rrs
