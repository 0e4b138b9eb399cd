// Competitive-ratio measurement helpers.
//
// Two regimes:
//  - solver-backed: MeasureRatio runs offline::SolveOptimal and reports the
//    exact ratio when the search completes, or the solver's certified
//    [lower, upper] bracket on OPT (and the induced ratio bracket) when the
//    state budget runs out — budget exhaustion degrades, it never fails;
//  - solver-free: a bracket [online/heuristic-OFF, online/LB] whose
//    lower end under-reports and upper end over-reports the true ratio
//    (offline::ClairvoyantCost and offline::LowerBound), for instances where
//    even a bounded search is too much (experiment E4).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/cost.h"
#include "core/instance.h"

namespace rrs {

class ThreadPool;

namespace analysis {

// Solver-backed ratio report: exact when the search completed, otherwise the
// certified OPT bracket it returned. states_expanded records the search
// effort either way (deterministic, so comparable across runs).
struct RatioReport {
  bool exact = false;
  uint64_t online_cost = 0;
  uint64_t opt_lower = 0;  // == opt_upper when exact
  uint64_t opt_upper = 0;
  uint64_t states_expanded = 0;
  // online/opt_upper <= true ratio <= online/opt_lower; equal when exact.
  double ratio_lower = 0;
  double ratio_upper = 0;
};

RatioReport MeasureRatio(const Instance& instance, uint64_t online_cost,
                         uint32_t m, const CostModel& model,
                         uint64_t max_states = 5'000'000);

struct RatioBracket {
  uint64_t online_cost = 0;
  uint64_t lower_bound = 0;      // certified LB on OPT
  uint64_t heuristic_cost = 0;   // certified UB on OPT
  std::string heuristic_policy;
  // online/heuristic <= true ratio <= online/lower_bound.
  double ratio_lower = 0;
  double ratio_upper = 0;
};

// Solver-free brackets for one or more online costs against the same
// (instance, m, model). The certified bounds depend only on those shared
// arguments, so the lower bound and the clairvoyant heuristic are computed
// once — concurrently on `pool` — instead of once per online cost.
// out[i] is the bracket for online_costs[i].
std::vector<RatioBracket> MeasureRatioBrackets(
    ThreadPool& pool, const Instance& instance,
    std::span<const uint64_t> online_costs, uint32_t m,
    const CostModel& model);

}  // namespace analysis
}  // namespace rrs
