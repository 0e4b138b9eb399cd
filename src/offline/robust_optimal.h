// Robust offline analysis over an interval-uncertainty set: certified
// [lower, upper] brackets on OPT valid for *every* concrete trace obtainable
// by pinning each job to one round of its arrival window.
//
// It runs on the same layered search as offline/optimal.cpp
// (offline/layered_search.h: packed arena-backed states, layer-parallel
// chunked expansion, config-sharded merging, bit-identical across thread
// counts) with an interval state model (see offline/interval_state.h):
// per-color RLE deadline profiles carry [optimistic, pessimistic] pending
// bounds and the accumulated cost is an interval [cost_lo, cost_hi]. The two
// envelopes evolve in lock-step under a shared configuration choice:
//
//   - the lo side replays the *forced* sub-instance (zero-width jobs only),
//     so along any config path, cost_lo <= that path's cost on every
//     concrete trace — and min over complete paths of cost_lo lower-bounds
//     min over traces of OPT;
//   - the hi side replays the *pessimistic* duplicated instance (every job
//     present at each round of its window), so cost_hi >= that path's cost
//     on every concrete trace — and any single complete path's cost_hi
//     upper-bounds max over traces of OPT.
//
// Pruning (both bracket-preserving; soundness in DESIGN.md §3.14):
//   - bound: an incumbent upper bound is seeded from the clairvoyant
//     portfolio replayed against the pessimistic envelope instance; a child
//     whose cost_lo plus the admissible optimistic-envelope Hall bound is
//     strictly above it cannot improve either bracket side;
//   - dominance: interval containment (IntervalStateDominates) — a state
//     whose envelopes and cost interval are bracketed by a groupmate's is
//     redundant for both sides.
//
// With zero-width windows both envelopes coincide and the bracket equals
// [OPT, OPT] bit-exactly (differential tests pin this against SolveOptimal on
// the full corpus). The search itself does not collapse to the concrete one:
// at lo == hi interval containment reduces to span identity, so dominance
// never fires, and on the gate instance robust/w0/m2/4c/h48 expands 3,160
// states where SolveOptimal's packed/m2/4c/h48 expands 1,751.
#pragma once

#include <cstdint>

#include "offline/optimal.h"

namespace rrs {

namespace workload {
class UncertainInstance;
}  // namespace workload

namespace offline {

struct RobustResult {
  // True when the search completed within max_states. Either way,
  //   lower_bound <= OPT(σ) <= upper_bound   for every concrete trace σ
  // in the set; exhaustion only widens the bracket, never invalidates it.
  bool exact = false;
  uint64_t lower_bound = 0;
  uint64_t upper_bound = 0;
  // Search effort, deterministic across thread counts.
  uint64_t states_expanded = 0;
  uint64_t states_generated = 0;
  uint64_t pruned_bound = 0;
  uint64_t pruned_dominated = 0;
  uint64_t max_layer_width = 0;
};

// Certified robust OPT bracket over the uncertainty set. Never fails. Takes
// SolveOptimal's options: the budget is checked at layer granularity, and on
// exhaustion the result carries exact == false with a (wider but still
// certified) bracket from the frontier and the incumbent; obs_scope records
// offline.robust.* counters and the offline.robust.layer_width histogram.
// There is no robust schedule, so reconstruct_schedule must be off.
RobustResult SolveRobust(const workload::UncertainInstance& set,
                         const OptimalOptions& options);

}  // namespace offline
}  // namespace rrs
