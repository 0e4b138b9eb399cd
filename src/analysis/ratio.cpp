#include "analysis/ratio.h"

#include <algorithm>

#include "offline/clairvoyant.h"
#include "offline/lower_bound.h"
#include "offline/optimal.h"
#include "parallel/thread_pool.h"

namespace rrs {
namespace analysis {

namespace {

double SafeRatio(uint64_t numerator, uint64_t denominator) {
  if (denominator == 0) return numerator == 0 ? 1.0 : 0.0;
  return static_cast<double>(numerator) / static_cast<double>(denominator);
}

}  // namespace

RatioReport MeasureRatio(const Instance& instance, uint64_t online_cost,
                         uint32_t m, const CostModel& model,
                         uint64_t max_states) {
  offline::OptimalOptions options;
  options.num_resources = m;
  options.cost_model = model;
  options.max_states = max_states;
  const offline::OptimalResult optimal = offline::SolveOptimal(instance, options);

  RatioReport out;
  out.exact = optimal.exact;
  out.online_cost = online_cost;
  out.opt_lower = optimal.lower_bound;
  out.opt_upper = optimal.upper_bound;
  out.states_expanded = optimal.states_expanded;
  out.ratio_lower = SafeRatio(online_cost, optimal.upper_bound);
  out.ratio_upper = SafeRatio(online_cost, optimal.lower_bound);
  return out;
}

std::vector<RatioBracket> MeasureRatioBrackets(
    ThreadPool& pool, const Instance& instance,
    std::span<const uint64_t> online_costs, uint32_t m,
    const CostModel& model) {
  // The two certified bounds are independent; overlap them.
  auto lb_future =
      pool.Submit([&] { return offline::LowerBound(instance, m, model); });
  auto heuristic = offline::ClairvoyantCost(instance, m, model);
  const uint64_t lower_bound = lb_future.get();

  std::vector<RatioBracket> out;
  out.reserve(online_costs.size());
  for (uint64_t cost : online_costs) {
    RatioBracket bracket;
    bracket.online_cost = cost;
    bracket.lower_bound = lower_bound;
    bracket.heuristic_cost = heuristic.total_cost;
    bracket.heuristic_policy = heuristic.best_policy;
    bracket.ratio_lower = SafeRatio(cost, bracket.heuristic_cost);
    bracket.ratio_upper = SafeRatio(cost, bracket.lower_bound);
    out.push_back(std::move(bracket));
  }
  return out;
}

}  // namespace analysis
}  // namespace rrs
