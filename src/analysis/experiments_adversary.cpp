// Experiments E1, E2, E6: the adversarial constructions of Appendices A/B
// and the introduction's thrash-vs-underutilize scenario.
#include <cmath>

#include "analysis/experiments.h"
#include "core/engine.h"
#include "reduce/pipeline.h"
#include "sched/dlru.h"
#include "sched/edf.h"
#include "sched/greedy.h"
#include "util/check.h"
#include "workload/adversary.h"

namespace rrs {
namespace analysis {

Table RunE1DlruAdversary(const E1Params& params) {
  Table table({"j", "k", "dlru_reconfigs", "dlru_drops", "dlru_cost",
               "off_cost", "ratio", "paper_pred_2^{j+1}/(n*delta)"});
  const CostModel model{params.delta};
  for (int j = params.j_min; j <= params.j_max; ++j) {
    const int k = j + params.k_offset;
    auto adv = workload::MakeDlruAdversary(params.n, params.delta, j, k);

    DlruPolicy dlru;
    EngineOptions options;
    options.num_resources = params.n;
    options.cost_model = model;
    RunResult online = RunPolicy(adv.instance, dlru, options);

    Schedule off = workload::MakeDlruAdversaryOffSchedule(adv);
    ValidationResult off_check = off.Validate(adv.instance);
    RRS_CHECK(off_check.ok) << "Appendix A OFF schedule invalid: "
                            << off_check.error;

    const uint64_t online_cost = online.total_cost(model);
    const uint64_t off_cost = off_check.cost.total(model);
    const double predicted =
        std::ldexp(1.0, j + 1) /
        static_cast<double>(params.n * params.delta);
    table.AddRow()
        .Cell(static_cast<int64_t>(j))
        .Cell(static_cast<int64_t>(k))
        .Cell(online.cost.reconfigurations)
        .Cell(online.cost.drops)
        .Cell(online_cost)
        .Cell(off_cost)
        .Cell(static_cast<double>(online_cost) /
                  static_cast<double>(off_cost),
              3)
        .Cell(predicted, 3);
  }
  return table;
}

Table RunE2EdfAdversary(const E2Params& params) {
  Table table({"j", "k", "edf_reconfigs", "edf_drops", "edf_cost", "off_cost",
               "ratio", "paper_pred_2^{k-j-1}/(n/2+1)"});
  const CostModel model{params.delta};
  for (int k = params.k_min; k <= params.k_max; ++k) {
    auto adv = workload::MakeEdfAdversary(params.n, params.delta, params.j, k);

    EdfPolicy edf(/*replicate=*/true);
    EngineOptions options;
    options.num_resources = params.n;
    options.cost_model = model;
    RunResult online = RunPolicy(adv.instance, edf, options);

    Schedule off = workload::MakeEdfAdversaryOffSchedule(adv);
    ValidationResult off_check = off.Validate(adv.instance);
    RRS_CHECK(off_check.ok) << "Appendix B OFF schedule invalid: "
                            << off_check.error;
    RRS_CHECK_EQ(off_check.cost.drops, 0u)
        << "Appendix B OFF schedule must execute every job";

    const uint64_t online_cost = online.total_cost(model);
    const uint64_t off_cost = off_check.cost.total(model);
    const double predicted =
        std::ldexp(1.0, k - params.j - 1) /
        (static_cast<double>(params.n) / 2.0 + 1.0);
    table.AddRow()
        .Cell(static_cast<int64_t>(params.j))
        .Cell(static_cast<int64_t>(k))
        .Cell(online.cost.reconfigurations)
        .Cell(online.cost.drops)
        .Cell(online_cost)
        .Cell(off_cost)
        .Cell(static_cast<double>(online_cost) /
                  static_cast<double>(off_cost),
              3)
        .Cell(predicted, 3);
  }
  return table;
}

Table RunE6IntroScenario(const E6Params& params) {
  Table table({"gap_blocks", "policy", "reconfigs", "drops", "total_cost",
               "reconfig_cost_share"});
  const CostModel model{params.delta};
  for (Round gap : params.gap_blocks) {
    workload::IntroScenarioOptions scenario;
    scenario.gap_blocks = gap;
    scenario.seed = params.seed;
    Instance instance = workload::MakeIntroScenario(scenario);

    auto add_row = [&](const std::string& policy_name, const CostBreakdown& c) {
      const uint64_t total = c.total(model);
      const double share =
          total == 0 ? 0.0
                     : static_cast<double>(c.reconfig_cost(model)) /
                           static_cast<double>(total);
      table.AddRow()
          .Cell(static_cast<int64_t>(gap))
          .Cell(policy_name)
          .Cell(c.reconfigurations)
          .Cell(c.drops)
          .Cell(total)
          .Cell(share, 3);
    };

    EngineOptions options;
    options.num_resources = params.n;
    options.cost_model = model;

    GreedyEdfPolicy greedy;
    add_row(greedy.name(), RunPolicy(instance, greedy, options).cost);

    LazyGreedyPolicy eager(1);
    add_row("lazy-greedy(1)", RunPolicy(instance, eager, options).cost);

    LazyGreedyPolicy patient(params.delta * 4);
    add_row("lazy-greedy(4*delta)",
            RunPolicy(instance, patient, options).cost);

    auto pipeline = reduce::SolveOnline(instance, options);
    add_row("dlru-edf(pipeline)", pipeline.cost());
  }
  return table;
}

}  // namespace analysis
}  // namespace rrs
