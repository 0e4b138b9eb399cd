#include "offline/lower_bound.h"

#include <algorithm>

#include "sched/par_edf.h"
#include "workload/uncertain.h"

namespace rrs {
namespace offline {

uint64_t DropLowerBound(const Instance& instance, uint32_t m) {
  // Par-EDF maximizes the number of executed jobs, so every m-resource
  // schedule drops at least ParEdfDropCost jobs; with variable drop costs,
  // each of those costs at least the cheapest color's weight.
  uint64_t count = ParEdfDropCost(instance, m);
  if (count == 0) return 0;
  uint64_t min_weight = static_cast<uint64_t>(-1);
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    if (instance.jobs_per_color()[c] > 0) {
      min_weight = std::min(min_weight, instance.drop_cost(c));
    }
  }
  return count * min_weight;
}

uint64_t ColorLowerBound(const Instance& instance, const CostModel& model) {
  // Per color: OFF either configures it at least once (>= Δ) or drops all
  // its jobs (count * drop cost).
  uint64_t total = 0;
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    uint64_t count = instance.jobs_per_color()[c];
    if (count == 0) continue;
    total += std::min(count * instance.drop_cost(c), model.delta);
  }
  return total;
}

uint64_t LowerBound(const Instance& instance, uint32_t m,
                    const CostModel& model) {
  return std::max(DropLowerBound(instance, m), ColorLowerBound(instance, model));
}

uint64_t RobustLowerBound(const workload::UncertainInstance& set, uint32_t m,
                          const CostModel& model) {
  return LowerBound(set.ForcedInstance(), m, model);
}

}  // namespace offline
}  // namespace rrs
