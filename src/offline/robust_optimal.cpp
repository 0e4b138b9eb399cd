#include "offline/robust_optimal.h"

#include <algorithm>
#include <vector>

#include "offline/clairvoyant.h"
#include "offline/interval_state.h"
#include "offline/layered_search.h"
#include "offline/lower_bound.h"
#include "util/check.h"
#include "workload/uncertain.h"

namespace rrs {
namespace offline {

namespace {

// Interval states for the layered search (layout in
// offline/interval_state.h): per color, (rel, lo, hi) buckets bracketing
// the pending count between the forced and the pessimistic envelope, and
// the accumulated cost interval. No parent link: the robust solver never
// reconstructs schedules, and component-wise min merging has no path
// identity to preserve.
class IntervalModel {
 public:
  struct Payload {
    uint64_t lo = 0;
    uint64_t hi = 0;
  };
  static constexpr uint32_t kStride = 3;

  // Dense per-round per-color arrival envelopes: `lo` counts only forced
  // (zero-width-window) jobs pinned to the round; `hi` counts every job
  // whose window covers the round (the pessimistic duplication).
  IntervalModel(const workload::UncertainInstance& set, uint32_t m)
      : set_(set),
        m_(m),
        num_colors_(static_cast<uint32_t>(set.num_colors())),
        arrivals_lo_((static_cast<size_t>(set.horizon()) + 1) * num_colors_,
                     0),
        arrivals_hi_(arrivals_lo_.size(), 0) {
    for (const workload::WindowedJob& job : set.jobs()) {
      if (job.release_lo == job.release_hi) {
        ++arrivals_lo_[static_cast<size_t>(job.release_lo) * num_colors_ +
                       job.color];
      }
      for (Round r = job.release_lo; r <= job.release_hi; ++r) {
        ++arrivals_hi_[static_cast<size_t>(r) * num_colors_ + job.color];
      }
    }
  }

  uint64_t drop_cost(uint32_t c) const { return set_.drop_cost(c); }

  // Reconfiguration cost is trace-independent: both envelope legs pay it.
  static Payload Reconfigure(const Payload& from, uint32_t, uint64_t cost) {
    return {from.lo + cost, from.hi + cost};
  }

  // Both envelopes execute earliest-deadline-first with the same resource
  // count but consume their own counts; the remaining-execution budgets are
  // tracked independently (the lo side runs out of work earlier). Bucket
  // remainders at rel == 1 drop on each side at the color's weight.
  uint32_t Advance(uint32_t c, const uint32_t* buckets, uint32_t len,
                   uint32_t exec, Round arrive, Payload& p,
                   std::vector<uint32_t>& child) const {
    const uint64_t w = set_.drop_cost(c);
    uint32_t remaining_lo = exec;
    uint32_t remaining_hi = exec;
    uint32_t out = 0;
    for (uint32_t i = 0; i < len; ++i) {
      const uint32_t rel = buckets[3 * i];
      uint32_t lo = buckets[3 * i + 1];
      uint32_t hi = buckets[3 * i + 2];
      const uint32_t take_lo = std::min(remaining_lo, lo);
      remaining_lo -= take_lo;
      lo -= take_lo;
      const uint32_t take_hi = std::min(remaining_hi, hi);
      remaining_hi -= take_hi;
      hi -= take_hi;
      if (hi == 0) continue;  // lo <= hi is preserved, so lo == 0 too
      if (rel == 1) {
        p.lo += lo * w;
        p.hi += hi * w;
        continue;
      }
      child.push_back(rel - 1);
      child.push_back(lo);
      child.push_back(hi);
      ++out;
    }
    const size_t at = static_cast<size_t>(arrive) * num_colors_ + c;
    if (arrivals_hi_[at] != 0) {
      child.push_back(static_cast<uint32_t>(set_.delay_bound(c)));
      child.push_back(arrivals_lo_[at]);
      child.push_back(arrivals_hi_[at]);
      ++out;
    }
    return out;
  }

  // The bound adds to the lo side: the search's heuristic reads the lo
  // counts, which makes it admissible for the *optimistic* envelope. Along
  // any config path, lo + heuristic never exceeds the path's cost on the
  // forced sub-instance — which never exceeds its cost on any concrete
  // trace — so pruning at that sum strictly above the pessimistic incumbent
  // only removes paths worse than the incumbent on every trace. (A
  // pessimistic-envelope Hall leg must NOT prune here: it can exceed a
  // trace-optimal path's true cost and would break the lower bracket.)
  static uint64_t Cost(const Payload& p) { return p.lo; }

  // Component-wise min of both cost sides. Each side's minimum is achieved
  // by some real path into the state, so both bracket legs stay certified,
  // and component-wise min is commutative and associative.
  static void Merge(Payload& kept, const Payload& other) {
    kept.lo = std::min(kept.lo, other.lo);
    kept.hi = std::min(kept.hi, other.hi);
  }

  // A dominator needs lo <= and hi >= its victim's, so (lo ascending, hi
  // descending) puts every possible dominator before its victims. Mutual
  // containment would force identical spans — impossible after interning —
  // so a kill chain always ends at a live container (containment is
  // transitive), preserving both bracket sides.
  static bool GroupBefore(const Payload& a, const Payload& b) {
    if (a.lo != b.lo) return a.lo < b.lo;
    return a.hi > b.hi;
  }

  bool Dominates(const uint32_t* a, uint32_t alen, const Payload& pa,
                 const uint32_t* b, uint32_t blen, const Payload& pb) const {
    return IntervalStateDominates({a, alen}, pa.lo, pa.hi, {b, blen}, pb.lo,
                                  pb.hi, m_, num_colors_);
  }

 private:
  const workload::UncertainInstance& set_;
  const uint32_t m_;
  const uint32_t num_colors_;
  std::vector<uint32_t> arrivals_lo_;  // [round * num_colors + color]
  std::vector<uint32_t> arrivals_hi_;
};

}  // namespace

RobustResult SolveRobust(const workload::UncertainInstance& set,
                         const OptimalOptions& options) {
  RRS_CHECK_GE(options.num_resources, 1u);
  RRS_CHECK(!options.reconstruct_schedule)
      << "SolveRobust reconstructs no schedule";
  const uint32_t m = options.num_resources;
  RobustResult result;

  if (set.num_jobs() == 0) {
    result.exact = true;
    return result;
  }

  // Incumbent: the clairvoyant portfolio replayed against the pessimistic
  // envelope instance. Any schedule's cost on the pessimistic instance
  // upper-bounds its cost on every member trace (each trace is a per-round,
  // per-color sub-instance), so this is a certified robust upper bound, and
  // the pruned search's final layer is provably nonempty (the path that is
  // optimal for the pessimistic instance survives every prune).
  const uint64_t incumbent =
      ClairvoyantCost(set.PessimisticInstance(), m, options.cost_model)
          .total_cost;

  const IntervalModel model(set, m);
  detail::LayeredSearch<IntervalModel> search(
      model, options, static_cast<uint32_t>(set.num_colors()), set.horizon(),
      incumbent, /*keep_history=*/false);
  result.exact = search.Run();
  search.Report(result);

  const uint64_t forced_floor = RobustLowerBound(set, m, options.cost_model);
  if (!result.exact) {
    // Certified bracket: every trace's optimal path either reaches the
    // frontier through (a container of) some node — whose lo plus the
    // admissible optimistic bound lower-bounds its cost — or was bound-
    // pruned, which certifies its cost exceeds the incumbent.
    result.lower_bound =
        std::max(std::min(search.FrontierBound(), incumbent), forced_floor);
    result.upper_bound = incumbent;
  } else {
    uint64_t best_lo = ~uint64_t{0};
    uint64_t best_hi = ~uint64_t{0};
    for (const auto& n : search.last().nodes) {
      best_lo = std::min(best_lo, n.payload.lo);
      best_hi = std::min(best_hi, n.payload.hi);
    }
    // Lower: the minimum final lo is OPT of the forced sub-instance
    // restricted to surviving paths; bound-pruned paths certify their traces'
    // optima exceed the incumbent, hence the min. Upper: any single complete
    // path's hi bounds every trace's optimum from above, as does the
    // incumbent.
    result.lower_bound =
        std::max(std::min(best_lo, incumbent), forced_floor);
    result.upper_bound = std::min(best_hi, incumbent);
  }

  search.Absorb(options.obs_scope, "offline.robust.", result.exact);
  return result;
}

}  // namespace offline
}  // namespace rrs
