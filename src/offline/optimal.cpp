#include "offline/optimal.h"

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include "offline/clairvoyant.h"
#include "offline/layered_search.h"
#include "offline/lower_bound.h"
#include "util/check.h"

namespace rrs {
namespace offline {

namespace {

// True when profile `a` is pointwise cumulative-dominated: for every horizon
// t, a has at most as many jobs due within t as b. Profiles are (rel, count)
// pairs ascending by rel.
bool ProfileDominates(const uint32_t* a, uint32_t alen, const uint32_t* b,
                      uint32_t blen) {
  uint64_t cum_a = 0, cum_b = 0;
  uint32_t j = 0;
  for (uint32_t i = 0; i < alen; ++i) {
    cum_a += a[2 * i + 1];
    const uint32_t rel = a[2 * i];
    while (j < blen && b[2 * j] <= rel) {
      cum_b += b[2 * j + 1];
      ++j;
    }
    if (cum_a > cum_b) return false;
  }
  return true;
}

// Concrete states for the layered search: per color, (relative deadline,
// count) buckets of pending jobs, and the accumulated cost with a parent
// link for schedule reconstruction.
class ExactModel {
 public:
  struct Payload {
    uint64_t cost = 0;
    uint32_t parent = detail::kNoIndex;  // index into the previous layer
  };
  static constexpr uint32_t kStride = 2;

  // Gathers dense per-round per-color arrival counts once.
  ExactModel(const Instance& instance, uint32_t m)
      : instance_(instance),
        m_(m),
        num_colors_(static_cast<uint32_t>(instance.num_colors())),
        arrivals_((static_cast<size_t>(instance.horizon()) + 1) * num_colors_,
                  0) {
    for (const Job& job : instance.jobs()) {
      ++arrivals_[static_cast<size_t>(job.arrival) * num_colors_ + job.color];
    }
  }

  uint64_t drop_cost(uint32_t c) const { return instance_.drop_cost(c); }

  static Payload Reconfigure(const Payload& from, uint32_t parent,
                             uint64_t cost) {
    return {from.cost + cost, parent};
  }

  // Executions consume the earliest-deadline buckets, survivors advance one
  // round (rel - 1; rel == 1 drops at the color's weight), and arrivals
  // append at rel = D_c, strictly above every survivor.
  uint32_t Advance(uint32_t c, const uint32_t* buckets, uint32_t len,
                   uint32_t exec, Round arrive, Payload& p,
                   std::vector<uint32_t>& child) const {
    const uint64_t w = instance_.drop_cost(c);
    uint32_t out = 0;
    for (uint32_t i = 0; i < len; ++i) {
      const uint32_t rel = buckets[2 * i];
      uint32_t count = buckets[2 * i + 1];
      const uint32_t take = std::min(exec, count);
      exec -= take;
      count -= take;
      if (count == 0) continue;
      if (rel == 1) {
        p.cost += count * w;
        continue;
      }
      child.push_back(rel - 1);
      child.push_back(count);
      ++out;
    }
    const uint32_t arriving =
        arrivals_[static_cast<size_t>(arrive) * num_colors_ + c];
    if (arriving != 0) {
      child.push_back(static_cast<uint32_t>(instance_.delay_bound(c)));
      child.push_back(arriving);
      ++out;
    }
    return out;
  }

  static uint64_t Cost(const Payload& p) { return p.cost; }

  // Keeps the minimum (cost, parent). That pair is a total order, so the
  // surviving entry is independent of insertion order.
  static void Merge(Payload& kept, const Payload& other) {
    if (other.cost < kept.cost ||
        (other.cost == kept.cost && other.parent < kept.parent)) {
      kept = other;
    }
  }

  static bool GroupBefore(const Payload& a, const Payload& b) {
    return a.cost < b.cost;
  }

  // A groupmate of no greater cost whose every per-color profile is
  // pointwise cumulative-dominated by the victim's: any completion of the
  // victim is feasible for it at no extra cost.
  bool Dominates(const uint32_t* a, uint32_t, const Payload&,
                 const uint32_t* b, uint32_t, const Payload&) const {
    size_t ia = m_, ib = m_;
    for (uint32_t c = 0; c < num_colors_; ++c) {
      const uint32_t la = a[ia++];
      const uint32_t lb = b[ib++];
      if (!ProfileDominates(a + ia, la, b + ib, lb)) return false;
      ia += 2 * static_cast<size_t>(la);
      ib += 2 * static_cast<size_t>(lb);
    }
    return true;
  }

 private:
  const Instance& instance_;
  const uint32_t m_;
  const uint32_t num_colors_;
  std::vector<uint32_t> arrivals_;  // [round * num_colors + color]
};

// Replays a per-round configuration-multiset sequence against the instance,
// producing a concrete Schedule with real job ids. Resource assignment keeps
// as many resources in place as the multiset overlap allows (matching the
// search's reconfiguration cost), reassigning the rest deterministically;
// executions pick the earliest-deadline (FIFO) pending job per resource.
Schedule ReplayConfigs(const Instance& instance, uint32_t m, uint32_t black,
                       const std::vector<std::vector<uint32_t>>& configs) {
  Schedule schedule(m, 1);
  std::vector<uint32_t> resource(m, black);
  std::vector<std::deque<JobId>> pending(instance.num_colors());

  for (Round k = 0; k < static_cast<Round>(configs.size()); ++k) {
    // Drop phase: expire deadline-k jobs.
    for (auto& queue : pending) {
      while (!queue.empty() && instance.deadline(queue.front()) == k) {
        queue.pop_front();
      }
    }
    // Arrival phase.
    auto jobs = instance.jobs_in_round(k);
    if (!jobs.empty()) {
      JobId id = instance.first_job_in_round(k);
      for (size_t i = 0; i < jobs.size(); ++i) {
        pending[jobs[i].color].push_back(id + static_cast<JobId>(i));
      }
    }
    // Reconfiguration phase: realize the target multiset with minimal
    // changes. need[c] = multiplicity of c in the target.
    const std::vector<uint32_t>& target = configs[static_cast<size_t>(k)];
    std::map<uint32_t, uint32_t> need;
    for (uint32_t c : target) ++need[c];
    std::vector<uint8_t> keep(m, 0);
    for (uint32_t r = 0; r < m; ++r) {
      auto it = need.find(resource[r]);
      if (it != need.end() && it->second > 0) {
        keep[r] = 1;
        --it->second;
      }
    }
    std::vector<uint32_t> leftovers;
    for (const auto& [c, count] : need) {
      for (uint32_t i = 0; i < count; ++i) leftovers.push_back(c);
    }
    size_t next_leftover = 0;
    for (uint32_t r = 0; r < m; ++r) {
      if (keep[r]) continue;
      RRS_CHECK_LT(next_leftover, leftovers.size());
      uint32_t c = leftovers[next_leftover++];
      resource[r] = c;
      schedule.AddReconfig(k, 0, r,
                           c == black ? kNoColor : static_cast<ColorId>(c));
    }
    // Execution phase.
    for (uint32_t r = 0; r < m; ++r) {
      uint32_t c = resource[r];
      if (c == black) continue;
      auto& queue = pending[c];
      if (queue.empty()) continue;
      schedule.AddExecution(k, 0, r, queue.front());
      queue.pop_front();
    }
  }
  return schedule;
}

}  // namespace

OptimalResult SolveOptimal(const Instance& instance,
                           const OptimalOptions& options) {
  RRS_CHECK_GE(options.num_resources, 1u);
  const uint32_t m = options.num_resources;
  const uint32_t black = static_cast<uint32_t>(instance.num_colors());
  const Round horizon = instance.horizon();
  OptimalResult result;

  if (instance.num_jobs() == 0) {
    result.exact = true;
    if (options.reconstruct_schedule) result.schedule = Schedule(m, 1);
    return result;
  }

  // Incumbent: the clairvoyant portfolio (ΔLRU-EDF, greedy/lazy variants,
  // static partition) replayed at m resources — a certified upper bound on
  // OPT, so pruning at `g + h > incumbent` (strictly above) can never prune
  // every optimal path, and the final layer is provably nonempty.
  const uint64_t incumbent =
      ClairvoyantCost(instance, m, options.cost_model).total_cost;
  result.upper_bound = incumbent;

  const ExactModel model(instance, m);
  detail::LayeredSearch<ExactModel> search(model, options, black, horizon,
                                           incumbent,
                                           options.reconstruct_schedule);
  result.exact = search.Run();
  search.Report(result);

  if (!result.exact) {
    // Certified bracket: the frontier bound below, the incumbent above.
    result.lower_bound =
        std::max(std::min(search.FrontierBound(), incumbent),
                 LowerBound(instance, m, options.cost_model));
    result.total_cost = result.upper_bound;
  } else {
    const auto& last = search.last().nodes;
    uint32_t best_index = 0;
    for (uint32_t i = 1; i < last.size(); ++i) {
      if (last[i].payload.cost < last[best_index].payload.cost) best_index = i;
    }
    result.total_cost = last[best_index].payload.cost;
    result.lower_bound = result.total_cost;
    result.upper_bound = result.total_cost;

    if (options.reconstruct_schedule) {
      // Backtrack the per-round configurations of the best path — each
      // layer-(k+1) state's config multiset is the configuration used during
      // round k — then replay them against the instance with real job ids.
      std::vector<std::vector<uint32_t>> configs(static_cast<size_t>(horizon));
      uint32_t idx = best_index;
      for (Round k = horizon; k-- > 0;) {
        const auto& layer = search.layer(k + 1);
        const auto& n = layer.nodes[idx];
        const uint32_t* span = layer.span(n);
        configs[static_cast<size_t>(k)].assign(span, span + m);
        RRS_CHECK(n.payload.parent != detail::kNoIndex || k == 0)
            << "broken parent chain at round " << k;
        idx = n.payload.parent;
      }
      result.schedule = ReplayConfigs(instance, m, black, configs);
    }
  }

  search.Absorb(options.obs_scope, "offline.", result.exact);
  return result;
}

}  // namespace offline
}  // namespace rrs
