// Cross-module integration tests: trace round-trips through the filesystem,
// the full pipeline on application scenarios, Theorem-style end-to-end
// comparisons (Lemma 3.1, the "who wins" shape of the paper), and the
// adversary-vs-pipeline matchups.
#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "analysis/ratio.h"
#include "core/engine.h"
#include "offline/optimal.h"
#include "reduce/pipeline.h"
#include "sched/dlru.h"
#include "sched/dlru_edf.h"
#include "sched/edf.h"
#include "sched/greedy.h"
#include "util/rng.h"
#include "workload/adversary.h"
#include "workload/scenarios.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

TEST(Integration, TraceFileRoundTripPreservesRuns) {
  workload::RouterOptions gen;
  gen.rounds = 128;
  gen.seed = 401;
  Instance inst = workload::MakeRouterScenario(
      workload::DefaultRouterServices(), gen);

  std::string path =
      (std::filesystem::temp_directory_path() / "rrs_trace_test.txt").string();
  ASSERT_TRUE(inst.SaveToFile(path));
  Instance loaded = Instance::LoadFromFile(path);
  std::remove(path.c_str());

  DlruEdfPolicy a, b;
  EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 4;
  RunResult ra = RunPolicy(inst, a, options);
  RunResult rb = RunPolicy(loaded, b, options);
  EXPECT_EQ(ra.cost, rb.cost);
  EXPECT_EQ(ra.executed, rb.executed);
}

TEST(Integration, Lemma31SparseColorsCostAtMostOff) {
  // Lemma 3.1: if every color has fewer than Δ jobs, ΔLRU-EDF (which never
  // makes such colors eligible and therefore never configures them) costs at
  // most OFF. Verified against the exact optimum.
  Rng rng(409);
  const uint64_t delta = 4;
  for (int trial = 0; trial < 10; ++trial) {
    InstanceBuilder b;
    ColorId c0 = b.AddColor(2);
    ColorId c1 = b.AddColor(4);
    ColorId c2 = b.AddColor(8);
    // At most 3 < delta jobs per color, batched arrivals.
    for (ColorId c : {c0, c1, c2}) {
      Round d = (c == c0) ? 2 : (c == c1 ? 4 : 8);
      uint64_t count = 1 + rng.NextBounded(3);
      for (uint64_t i = 0; i < count; ++i) {
        b.AddJob(c, static_cast<Round>(rng.NextBounded(3)) * d);
      }
    }
    Instance inst = b.Build();
    ASSERT_TRUE(inst.IsBatched());

    DlruEdfPolicy policy;
    EngineOptions options;
    options.num_resources = 8;
    options.cost_model.delta = delta;
    RunResult online = RunPolicy(inst, policy, options);

    offline::OptimalOptions opt_options;
    opt_options.num_resources = 1;
    opt_options.cost_model.delta = delta;
    auto opt = offline::SolveOptimal(inst, opt_options);
    ASSERT_TRUE(opt.exact);
    EXPECT_LE(online.total_cost(options.cost_model), opt.total_cost)
        << "trial " << trial;
    // And ΔLRU-EDF indeed never reconfigures here.
    EXPECT_EQ(online.cost.reconfigurations, 0u);
  }
}

TEST(Integration, PaperShapeOnDlruAdversary) {
  // On Appendix A's input, the expected ordering is:
  //   OFF (handmade) <= ΔLRU-EDF pipeline-free run << ΔLRU.
  // j = 6: the asymptotic ratio 2^{j+1}/(nΔ) = 16 comfortably clears the 8x
  // separation asserted below.
  auto adv = workload::MakeDlruAdversary(4, 2, 6, 11);
  CostModel model{2};
  EngineOptions options;
  options.num_resources = 4;
  options.cost_model = model;

  DlruPolicy dlru;
  uint64_t dlru_cost = RunPolicy(adv.instance, dlru, options).total_cost(model);
  DlruEdfPolicy combined;
  uint64_t combined_cost =
      RunPolicy(adv.instance, combined, options).total_cost(model);
  Schedule off = workload::MakeDlruAdversaryOffSchedule(adv);
  uint64_t off_cost = off.Validate(adv.instance).cost.total(model);

  EXPECT_LT(combined_cost, dlru_cost);
  // ΔLRU-EDF should be within a small constant of OFF while ΔLRU is far off.
  EXPECT_LT(static_cast<double>(combined_cost),
            8.0 * static_cast<double>(off_cost));
  EXPECT_GT(static_cast<double>(dlru_cost),
            8.0 * static_cast<double>(off_cost));
}

TEST(Integration, PaperShapeOnEdfAdversary) {
  // On Appendix B's input: EDF thrashes, ΔLRU-EDF stays near OFF.
  auto adv = workload::MakeEdfAdversary(4, 5, 3, 9);
  CostModel model{5};
  EngineOptions options;
  options.num_resources = 4;
  options.cost_model = model;

  EdfPolicy edf(true);
  uint64_t edf_cost = RunPolicy(adv.instance, edf, options).total_cost(model);
  DlruEdfPolicy combined;
  uint64_t combined_cost =
      RunPolicy(adv.instance, combined, options).total_cost(model);
  Schedule off = workload::MakeEdfAdversaryOffSchedule(adv);
  uint64_t off_cost = off.Validate(adv.instance).cost.total(model);

  EXPECT_LT(combined_cost, edf_cost);
  EXPECT_GT(edf_cost, 4 * off_cost);
}

TEST(Integration, PipelineBeatsNaiveBaselinesOnDatacenter) {
  workload::DatacenterOptions gen;
  gen.rounds = 1024;
  gen.phase_length = 128;
  gen.seed = 419;
  Instance inst = workload::MakeDatacenterScenario(gen);

  CostModel model{8};
  EngineOptions options;
  options.num_resources = 16;
  options.cost_model = model;

  auto pipeline = reduce::SolveOnline(inst, options);
  uint64_t pipeline_cost = pipeline.cost().total(model);

  NeverReconfigurePolicy never;
  uint64_t never_cost = RunPolicy(inst, never, options).total_cost(model);
  EXPECT_LT(pipeline_cost, never_cost);
}

TEST(Integration, ExactRatioOnTinyAdversary) {
  // Even the exact optimum confirms the ΔLRU failure on a miniature
  // Appendix-A instance small enough to solve exactly.
  auto adv = workload::MakeDlruAdversary(/*n=*/2, /*delta=*/1, /*j=*/2,
                                         /*k=*/4);
  CostModel model{1};
  EngineOptions options;
  options.num_resources = 2;
  options.cost_model = model;
  DlruPolicy dlru;
  uint64_t online = RunPolicy(adv.instance, dlru, options).total_cost(model);
  auto exact = analysis::MeasureRatio(adv.instance, online, 1, model);
  ASSERT_TRUE(exact.exact);
  EXPECT_GT(exact.ratio_lower, 1.0);
}

TEST(Integration, SerializedAdversaryStaysAdversarial) {
  auto adv = workload::MakeDlruAdversary(4, 2, 3, 7);
  std::string path =
      (std::filesystem::temp_directory_path() / "rrs_adv_test.txt").string();
  ASSERT_TRUE(adv.instance.SaveToFile(path));
  Instance loaded = Instance::LoadFromFile(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded.IsRateLimited());
  EXPECT_EQ(loaded.num_jobs(), adv.instance.num_jobs());
}

}  // namespace
}  // namespace rrs
