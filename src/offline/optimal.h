// Exact offline optimal cost via a cost-bounded, lower-bound-pruned,
// layer-parallel branch-and-bound search over packed canonical states. This
// is the OFF of the paper's competitive analysis, computed exactly where the
// search completes and bracketed where it does not; experiment E3 measures
// ΔLRU-EDF's empirical competitive ratio against it.
//
// State after the arrival phase of round k:
//   - the multiset of resource colors (resources are interchangeable, so the
//     sorted multiset is canonical);
//   - per color, the multiset of *relative* deadlines of pending jobs
//     (unit jobs collapse to (relative deadline, count) pairs; relative
//     encoding maximizes state sharing across rounds).
//
// States are packed: each state is a contiguous uint32 span in a per-layer
// arena — [config multiset (m words, sorted, black = num_colors)] followed by
// [per color: length, then (rel, count) RLE pairs] — keyed by a mixed 64-bit
// hash of the span. The hot loop interns child spans into open-addressing
// tables without ever materializing a per-state object or per-state heap
// allocation.
//
// Transition (one round): choose the next color multiset C' over
// {colors with pending work} ∪ {current colors} — reconfiguring to an idle
// color is dominated, since the reconfiguration can always be postponed to
// the round of first use at equal cost — pay Δ·(m − |C ∩ C'| as multisets)
// (an optimal assignment keeps matching resources in place), then each
// resource executes the earliest-deadline pending job of its color
// (exchange-optimal within a color; idling a resource whose color has
// pending work is dominated because executing any job never increases cost),
// then advance: jobs reaching deadline drop at their color's drop cost,
// round-(k+1) arrivals join.
//
// Pruning (both exactness-preserving; see DESIGN.md §"Offline solver"):
//   - admissible bound: an incumbent upper bound is seeded from the
//     clairvoyant policy portfolio (which replays ΔLRU-EDF among others);
//     a child with g + h strictly above it is dead, where h is the per-state
//     admissible completion bound (per-color capacity-relaxed EDF drops and
//     minimum future reconfiguration cost, generalizing offline/lower_bound);
//   - dominance: at equal config multiset, a state whose per-color pending
//     profile is pointwise cumulative-dominated by a state of no greater
//     cost cannot lead to a better completion and is dead.
//
// Parallelism: each layer's states are expanded in independent chunks on the
// supplied ThreadPool, then merged by min-cost reduction into config-sharded
// open-addressing tables and canonically sorted — no locks on the hot path,
// and results (costs, bracket, expansion counts, reconstructed schedule) are
// bit-identical for every thread count, including pool == nullptr. The
// search is offline/layered_search.h, shared with offline::SolveRobust; this
// solver supplies the concrete state model.
//
// Complexity is exponential; the solver enforces an expansion budget checked
// at layer granularity and degrades gracefully beyond it: instead of failing,
// it returns a certified [lower_bound, upper_bound] bracket on OPT (the best
// frontier bound and the incumbent). Honest envelope with pruning: m <= 4
// resources, <= 6 colors, horizon <= ~128 at moderate load (validated against
// offline::SolveBruteForce on small instances and the retained reference DP).
#pragma once

#include <cstdint>
#include <optional>

#include "core/cost.h"
#include "core/instance.h"
#include "core/schedule.h"

namespace rrs {

class ThreadPool;

namespace obs {
class Scope;
}  // namespace obs

namespace offline {

struct OptimalOptions {
  uint32_t num_resources = 1;
  CostModel cost_model;
  // Expansion budget, checked before each layer: when the next layer would
  // push the total expansions past this, the search stops and the result
  // carries exact == false with a certified [lower_bound, upper_bound]
  // bracket instead of the exact optimum.
  uint64_t max_states = 5'000'000;
  // Also reconstruct an optimal Schedule (with real JobIds) by backtracking
  // the search and replaying the chosen configuration sequence. The schedule
  // is suitable for Schedule::Validate, whose recomputed cost must equal
  // total_cost (tests pin this). Present only when the solve is exact.
  // Costs extra memory (every layer is retained for parent links).
  bool reconstruct_schedule = false;
  // Worker pool for layer-parallel expansion; nullptr runs single-threaded.
  // Results are identical for every pool size.
  ThreadPool* pool = nullptr;
  // Optional observability scope: records offline.* counters (expansions,
  // prune counts) and the offline.layer_width histogram. Falls back to the
  // global scope; null disables.
  obs::Scope* obs_scope = nullptr;
  // Testing/ablation knobs; both default on. The incumbent replay always
  // runs (the exhaustion bracket needs it); these only gate the pruning.
  bool prune_bound = true;
  bool prune_dominance = true;
};

struct OptimalResult {
  // True when the search completed within max_states: total_cost ==
  // lower_bound == upper_bound is the exact optimum. False on budget
  // exhaustion: [lower_bound, upper_bound] is a certified bracket on OPT
  // (lower: best admissible frontier bound, floored by offline::LowerBound;
  // upper: the incumbent portfolio replay) and total_cost == upper_bound.
  bool exact = false;
  uint64_t total_cost = 0;
  uint64_t lower_bound = 0;
  uint64_t upper_bound = 0;
  // Search effort: states expanded (sum of layer widths), children generated
  // before dedup, prune tallies, and the widest layer. All deterministic.
  uint64_t states_expanded = 0;
  uint64_t states_generated = 0;
  uint64_t pruned_bound = 0;
  uint64_t pruned_dominated = 0;
  uint64_t max_layer_width = 0;
  // Present iff reconstruct_schedule was set and the solve is exact.
  std::optional<Schedule> schedule;
};

// Minimum total cost over all offline schedules with the given number of
// resources: exact when the budget suffices, otherwise a certified bracket
// (see OptimalResult::exact). Never fails.
OptimalResult SolveOptimal(const Instance& instance,
                           const OptimalOptions& options);

}  // namespace offline
}  // namespace rrs
