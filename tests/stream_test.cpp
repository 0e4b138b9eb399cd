// Tests for the streaming layer: OnlineSolver must be cost-equivalent to the
// offline pipeline given matching subcolor budgets, and report its outcomes
// in the base color space.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "reduce/distribute.h"
#include "reduce/online.h"
#include "reduce/pipeline.h"
#include "reduce/varbatch.h"
#include "sched/registry.h"
#include "util/rng.h"
#include "workload/scenarios.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

// ---- OnlineSolver == offline pipeline --------------------------------

class OnlinePipelineEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OnlinePipelineEquivalence, CostsMatchOfflinePipeline) {
  const uint64_t seed = GetParam();
  std::vector<workload::ColorSpec> specs = {
      {1, 0.4}, {2, 0.5}, {4, 0.5}, {8, 0.4}, {16, 0.3}};
  workload::PoissonOptions gen;
  gen.rounds = 80;
  gen.seed = seed;
  Instance instance = MakePoisson(specs, gen);
  if (instance.num_jobs() == 0) GTEST_SKIP();

  EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 3;

  // Offline pipeline (ground truth).
  auto pipeline = reduce::SolveOnline(instance, options);

  // Matching subcolor budgets so inner color numbering is identical.
  auto varbatch = reduce::VarBatchInstance(instance);
  auto distribute = reduce::DistributeInstance(varbatch.transformed);
  std::vector<reduce::OnlineSolver::ColorSpec> colors;
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    colors.push_back({instance.delay_bound(c),
                      distribute.subcolors_per_color[c]});
  }

  reduce::OnlineSolver solver(colors, options);
  std::vector<std::pair<ColorId, uint64_t>> arrivals;
  for (Round k = 0; k < instance.num_request_rounds(); ++k) {
    arrivals.clear();
    auto jobs = instance.jobs_in_round(k);
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

  EXPECT_EQ(solver.cost().drops, pipeline.cost().drops);
  EXPECT_EQ(solver.cost().reconfigurations, pipeline.cost().reconfigurations);
  EXPECT_EQ(solver.executed(), pipeline.validation.executed);
  EXPECT_EQ(solver.arrived(), instance.num_jobs());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlinePipelineEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(OnlineSolver, BudgetOverflowIsCheckedError) {
  std::vector<reduce::OnlineSolver::ColorSpec> colors = {{4, 1}};
  EngineOptions options;
  options.num_resources = 8;
  reduce::OnlineSolver solver(colors, options);
  // D = 4 -> D' = 2; a burst of 5 jobs needs 3 subcolors > budget 1.
  std::vector<std::pair<ColorId, uint64_t>> burst = {{0, 5}};
  solver.Step(burst);               // buffered, no overflow yet
  EXPECT_DEATH(solver.Finish(), "subcolor budget");
}

TEST(OnlineSolver, EmptyStreamIsFree) {
  std::vector<reduce::OnlineSolver::ColorSpec> colors = {{2, 2}, {8, 2}};
  EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 5;
  reduce::OnlineSolver solver(colors, options);
  for (int k = 0; k < 10; ++k) solver.Step({});
  solver.Finish();
  EXPECT_EQ(solver.cost().total(options.cost_model), 0u);
}

TEST(OnlineSolver, OutcomesAreInBaseColorSpace) {
  std::vector<reduce::OnlineSolver::ColorSpec> colors = {{2, 4}};
  EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 1;
  reduce::OnlineSolver solver(colors, options);
  std::vector<std::pair<ColorId, uint64_t>> arrivals = {{0, 4}};
  solver.Step(arrivals);
  bool saw_action = false;
  while (solver.current_round() < 12) {
    const RoundOutcome& out = solver.Step({});
    for (const auto& [r, c] : out.reconfigs) {
      EXPECT_TRUE(c == kNoColor || c == 0u);
      saw_action = true;
    }
    for (const auto& [c, count] : out.executions) EXPECT_EQ(c, 0u);
    for (const auto& [c, count] : out.drops) EXPECT_EQ(c, 0u);
  }
  solver.Finish();
  EXPECT_TRUE(saw_action || solver.cost().drops > 0);
}

}  // namespace
}  // namespace rrs
