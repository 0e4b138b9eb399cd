// OnlineSolver: the deployment-facing, truly incremental form of the paper's
// algorithm (VarBatch ∘ Distribute ∘ ΔLRU-EDF), run on a session Engine.
//
// A caller declares the color table (per-color delay bounds plus a subcolor
// budget — the maximum number of (ℓ, j) subcolors Distribute may need, i.e.
// ceil(max jobs per batch / D'_ℓ)) and then feeds arrivals one round at a
// time; each Step returns the reconfigurations to apply and the per-color
// execution counts for that round, in the ORIGINAL color space.
//
// Internally:
//  - VarBatch streaming: a job of color ℓ arriving at round t is buffered
//    until the next half-block boundary VarBatchArrival(t, D_ℓ) and injected
//    there with delay bound D'_ℓ = VarBatchDelayBound(D_ℓ);
//  - Distribute streaming: each boundary batch of T jobs is split into
//    subcolors of at most D'_ℓ jobs each (rank order);
//  - ΔLRU-EDF runs on the subcolor stream inside one open Engine run: Step
//    stages the round's subcolor runs in a push source that never ends and
//    steps the engine one round;
//  - a policy wrapper projects the outputs back on the way through:
//    subcolor reconfigurations that do not change a resource's base color
//    are elided (Lemma 4.2), executions and drops are re-labelled with base
//    colors.
//
// Cost equivalence with the offline pipeline (reduce::SolveOnline) on the
// same workload — given matching subcolor budgets — is pinned by tests.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "container/flat_map.h"
#include "core/engine.h"
#include "sched/dlru_edf.h"

namespace rrs {

struct RoundOutcome {
  Round round = 0;
  // Reconfigurations applied this round, in application order across all
  // mini-rounds. Pairs are (resource, new base color).
  std::vector<std::pair<ResourceId, ColorId>> reconfigs;
  // Jobs executed this round and jobs dropped in its drop phase, as
  // (base color, count): one entry per color with a nonzero count, in
  // ascending color order.
  std::vector<std::pair<ColorId, uint64_t>> executions;
  std::vector<std::pair<ColorId, uint64_t>> drops;
};

namespace reduce {

class OnlineSolver {
 public:
  struct ColorSpec {
    Round delay_bound = 1;
    // Upper bound on ceil((jobs of this color arriving in one half-block) /
    // D'): the number of subcolors reserved. Feeding a burst that needs more
    // subcolors than reserved is a checked error.
    uint32_t max_subcolors = 1;
  };

  OnlineSolver(std::vector<ColorSpec> colors, EngineOptions options,
               DlruEdfPolicy::Params params = {});
  ~OnlineSolver();
  // The engine holds pointers into the solver, so it neither copies nor
  // moves.
  OnlineSolver(const OnlineSolver&) = delete;
  OnlineSolver& operator=(const OnlineSolver&) = delete;

  // Session rebind (core/session.h): restarts the solver at round 0 for a
  // new tenant with the same color table. The inner Engine run, the
  // ΔLRU-EDF policy state, the VarBatch buffers, and the base-color
  // projection are all cleared in place — zero steady-state allocation — so
  // one solver object serves an unbounded series of tenants.
  void Reset();

  size_t num_colors() const { return colors_.size(); }
  Round current_round() const { return engine_.next_round(); }

  // Advances one round; arrivals are (original color, count) pairs. The
  // returned outcome is expressed in original colors and is valid until the
  // next Step/Finish call.
  const RoundOutcome& Step(
      std::span<const std::pair<ColorId, uint64_t>> arrivals);

  // Drains all buffered and pending work (runs empty rounds until done).
  void Finish();

  // Total certified cost so far: base-color reconfigurations * Δ + drops.
  CostBreakdown cost() const;
  uint64_t arrived() const { return arrived_; }
  uint64_t executed() const { return engine_.run_executed(); }

  // Checkpoint/restore at a round boundary: the solver's own projection
  // state (round, base colors, buffered VarBatch batches) followed by the
  // inner Engine run + ΔLRU-EDF state. LoadState requires a solver built
  // with the same color table, options, and params; it overwrites all run
  // state, so the restored solver's future Step outputs are bit-identical
  // to the saved one's.
  void SaveState(snapshot::Writer& w) const;
  void LoadState(snapshot::Reader& r);

 private:
  class PushSource;
  class Projector;

  // Outcome projection during a step: base-color recolorings (Lemma 4.2)
  // and per-base-color totals.
  void ProjectRecolor(ResourceId r, ColorId inner_color);
  void Tally(ColorId inner_color, uint64_t count,
             std::vector<uint64_t>& by_base);

  std::vector<ColorSpec> colors_;
  std::vector<Round> inner_delay_;        // D' per original color
  std::vector<ColorId> first_subcolor_;   // original color -> first inner id
  std::vector<ColorId> base_of_;          // inner id -> original color

  std::unique_ptr<PushSource> source_;
  std::unique_ptr<Projector> projector_;
  Engine engine_;

  uint64_t arrived_ = 0;
  uint64_t reconfigurations_ = 0;  // base-color changes only
  std::vector<ColorId> resource_base_color_;
  // Buffered VarBatch batches: (boundary round, original color) -> count.
  // One flat map: the key set is tiny and hot, the batches due next lead
  // it, and delivering them allocates nothing.
  FlatMap<std::pair<Round, ColorId>, uint64_t> buffered_;

  // Per-step scratch: (inner color, pending) before the first mini-round's
  // execution, per-base-color totals, and the base colors they touched.
  std::vector<std::pair<ColorId, uint64_t>> pending_before_;
  std::vector<uint64_t> executed_by_base_;
  std::vector<uint64_t> dropped_by_base_;
  std::vector<ColorId> touched_bases_;
  RoundOutcome outcome_;
};

}  // namespace reduce
}  // namespace rrs
