// BatchEngine: a lane-parallel execution core for fleets of same-shape
// tenants.
//
// A slab holds up to `width` (≤ 64) concurrently live replay sessions
// ("lanes") that advance in lock-step, one round at a time, through the
// model's four phases. It is the instance of up to 64 lanes of the one round
// loop (core/round_loop.h) whose width-1 instance is the scalar Engine:
// run state, ResourceView, phases, result fill and checkpoint codec are the
// same code. Lanes must agree on the *shape* — color count, resource count,
// mini-rounds per round, Δ, and the per-color delay-bound layout — which is
// what lets the slab amortize the lane-invariant work:
//
//  - per-color pending counts live in one SoA table indexed
//    [color * width + lane], exposed to every lane's policy through the
//    strided ResourceView fast path;
//  - expiring deadlines are tracked in one shared timing wheel whose slot
//    entries are (color, lane) pairs in push order, so round k's drop phase
//    is a single scan of slot k for the whole slab, and filtering by lane
//    reproduces the scalar engine's per-lane expiry order exactly;
//  - execution advances as a masked walk over colors: per color, a lane
//    bitmask of lanes with resources of that color and a backlog, each
//    popping min(resources, pending) jobs;
//  - lanes running the stock ΔLRU-EDF policy are handed to the lane-fused
//    kernel (sched/lane_kernels.h), which shares boundary collection and the
//    EDF class order across the slab; any other registry policy runs through
//    its ordinary virtual hooks per lane ("generic" lanes), so the slab
//    supports every policy.
//
// What is the slab's own: shape adoption and LaneCompatible; lane open,
// close and abort; the stepping and arrival-live masks; fused dispatch; and
// the occupancy counters.
//
// Sessions stay bit-identical to the scalar Engine: per-lane RunResults
// (cost, drops, telemetry counters), snapshot byte streams, and restore
// compatibility are pinned against Engine by tests/batch_engine_test.cpp.
// The slab is a Session (core/session.h): lanes rebind in place, the arena
// performs no steady-state allocation once warm, and SnapshotLane /
// RestoreLane interoperate with Engine::SnapshotRun / RestoreRun at round
// cuts.
//
// Restrictions (the fleet falls back to a scalar Engine otherwise):
// record_schedule must be off and no per-run obs scope may be attached —
// both are per-resource-grained observers with no batched equivalent.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cost.h"
#include "core/engine.h"
#include "core/instance.h"
#include "core/policy.h"
#include "snapshot/codec.h"
#include "workload/arrival_source.h"

namespace rrs {
namespace fleet {

class BatchEngine {
 public:
  static constexpr uint32_t kMaxLanes = 64;

  explicit BatchEngine(uint32_t width);
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  uint32_t width() const { return width_; }
  bool empty() const { return open_mask_ == 0; }
  uint64_t open_mask() const { return open_mask_; }
  Round next_round() const;

  bool lane_open(uint32_t lane) const {
    return (open_mask_ >> lane & 1) != 0;
  }
  // An open lane whose horizon is exhausted (ready for FinishLane).
  bool lane_done(uint32_t lane) const;

  // Whether a tenant can join the slab: batchable options (no schedule
  // recording, no obs scope) and, unless the slab is empty (an empty slab
  // adopts any shape), the slab's exact shape.
  bool LaneCompatible(const Instance& instance,
                      const EngineOptions& options) const;

  // Opens lane `lane` (must be free) on a tenant. All lanes step in
  // lock-step from round 0, so opening is only legal while the slab has not
  // stepped (next_round() == 0). The instance and policy must outlive the
  // lane's run.
  void OpenLane(uint32_t lane, const Instance& instance,
                const EngineOptions& options, SchedulerPolicy& policy);

  // Opens a lane on a streaming source (same compatibility rules against
  // source.shape()). The source is Reset and its rounds are pulled by the
  // slab's arrival phase; it must outlive the lane's run.
  void OpenLane(uint32_t lane, workload::ArrivalSource& source,
                const EngineOptions& options, SchedulerPolicy& policy);

  // Advances every open lane by up to max_rounds rounds in lock-step (lanes
  // whose horizon is exhausted stop participating). Returns true while any
  // open lane has rounds remaining.
  bool StepRounds(Round max_rounds);

  // Closes a finished lane (lane_done) and fills `result` exactly as
  // Engine::FinishRun would. When the last lane closes the slab resets to
  // round 0 for reuse.
  void FinishLane(uint32_t lane, RunResult& result);

  // Abandons an open lane mid-run (its wheel entries are scrubbed).
  void AbortLane(uint32_t lane);

  // Serializes the lane's run state in Engine::SnapshotRun's exact byte
  // format (the one codec of core/round_loop.h), so a lane snapshot restores
  // into a scalar Engine and vice versa.
  void SnapshotLane(uint32_t lane, snapshot::Writer& w) const;

  // Opens lane `lane` from a scalar-format snapshot. The snapshot's round
  // must equal the slab's current round; an empty slab adopts the snapshot's
  // round.
  void RestoreLane(uint32_t lane, const Instance& instance,
                   const EngineOptions& options, SchedulerPolicy& policy,
                   snapshot::Reader& r);

  // Restore onto a streaming source. With `source_state` the source loads
  // its saved kTagArrivalSource section(s) from that reader; without it the
  // source is repositioned by deterministic replay (SeekRound).
  void RestoreLane(uint32_t lane, workload::ArrivalSource& source,
                   const EngineOptions& options, SchedulerPolicy& policy,
                   snapshot::Reader& r,
                   snapshot::Reader* source_state = nullptr);

  // ---- Mid-run observation hooks (SLO tracking) --------------------------
  // The lane's cost accumulated so far; valid while the lane is open.
  const CostBreakdown& lane_cost(uint32_t lane) const;
  // Rounds the lane has actually advanced: the slab round clamped to the
  // lane's own horizon (a done lane stops participating in lock-step).
  Round lane_rounds(uint32_t lane) const;

  // ---- Occupancy counters (cumulative over the slab's lifetime) ----------
  uint64_t lane_rounds_stepped() const { return lane_rounds_; }
  uint64_t slab_rounds_stepped() const { return slab_rounds_; }
  uint64_t fused_lane_opens() const { return fused_lane_opens_; }
  uint64_t generic_lane_opens() const { return generic_lane_opens_; }

 private:
  // The slab's lane set over core/round_loop.h, with the fused kernel.
  struct Slab;

  // Shared body of the OpenLane and RestoreLane overloads: adopts the shape
  // of an empty slab, opens the lane's run (source == nullptr means
  // instance-fed via the lane's own InstanceSource), restores it from `r`
  // when given, and binds ΔLRU-EDF lanes to the fused kernel.
  void Open(uint32_t lane, const Instance& shape,
            workload::ArrivalSource* source, const EngineOptions& options,
            SchedulerPolicy& policy, snapshot::Reader* r,
            snapshot::Reader* source_state);
  // Releases a lane and, when it was the last one, resets the slab.
  void CloseLane(uint32_t lane);

  uint32_t width_ = 0;
  uint64_t open_mask_ = 0;
  std::unique_ptr<Slab> slab_;

  uint64_t lane_rounds_ = 0;
  uint64_t slab_rounds_ = 0;
  uint64_t fused_lane_opens_ = 0;
  uint64_t generic_lane_opens_ = 0;
};

}  // namespace fleet
}  // namespace rrs
