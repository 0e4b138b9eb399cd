// The round-phase simulation engine for [Δ | 1 | D_ℓ | ·] (Section 2).
//
// The engine is the single source of truth for model semantics: the
// drop/arrival/reconfiguration/execution phase order, unit-job pending state,
// cost accounting (Δ per actual recoloring, 1 per drop), and the optional
// mini-round doubling used by double-speed algorithms. Policies only decide
// resource colors; everything else is fixed by the model.
//
// Engine is the width-1 instance of the one round loop (core/round_loop.h),
// which fleet::BatchEngine instantiates for slabs of up to 64 lanes. What is
// Engine's own: binding through Reset (to an Instance or a streaming
// source), schedule recording with per-resource execution in resource
// order, the per-run obs scope with sampled phase timing, and the
// RunPolicy fresh-construction oracle.
//
// Per-color pending jobs live in power-of-two SoA rings (JobRing) sized to
// the color's maximum *backlog*, not its total job count: a color's
// deadlines arrive in nondecreasing order (deadline = arrival + D_ℓ with
// D_ℓ fixed per color), so FIFO order *is* earliest-deadline order and
// drop-phase expiry only ever advances the ring head. Ring capacity is
// reused round over round, so per-run setup is O(num_colors) and the round
// loop allocates nothing in steady state (gated by bench/bench_baseline).
// Expiry scanning uses a timing wheel keyed by deadline, armed during the
// arrival phase, so a round's drop phase touches only colors that can
// actually expire in it.
//
// Engine is a *session core* (core/session.h): one object serves an
// unbounded series of tenants. Reset(instance[, options]) rebinds it in
// place — the loop behind the pimpl is the session's arena, its rings,
// wheel, and scratch buffers are reused across tenants and only grow when a
// tenant's shape exceeds everything seen before. Runs can execute whole
// (Run) or incrementally (BeginRun / StepRounds / FinishRun), which is what
// lets fleet/FleetRunner interleave thousands of sessions in round buckets.
// See DESIGN.md §3.5 and §3.8.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/instance.h"
#include "core/policy.h"
#include "core/schedule.h"
#include "obs/telemetry.h"
#include "workload/arrival_source.h"

namespace rrs {

struct RunResult {
  CostBreakdown cost;
  uint64_t executed = 0;
  uint64_t arrived = 0;
  Round rounds_simulated = 0;
  std::vector<uint64_t> drops_per_color;
  // Structured per-run snapshot beyond the figures above: per-color
  // reconfigs, sampled per-phase wall-time summaries, and the policy's
  // counters (SchedulerPolicy::ExportMetrics). The counters are populated
  // at every obs level; the phase and per-color fields are empty at
  // RRS_OBS_LEVEL=0.
  obs::Telemetry telemetry;
  std::optional<Schedule> schedule;  // present iff options.record_schedule

  uint64_t total_cost(const CostModel& model) const {
    return cost.total(model);
  }
};

class Engine {
 public:
  // An unbound session; Reset(...) before the first run.
  Engine();
  ~Engine();
  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;

  // Constructs and binds in one step (the classic single-tenant shape).
  Engine(const Instance& instance, EngineOptions options);

  // Rebinds the session to a new tenant in place (Session rule 1): sizes
  // the simulation state for the instance without releasing capacity
  // acquired for earlier tenants. `instance` must outlive all runs against
  // it. Illegal while a run is open. Internally this binds the engine's own
  // InstanceSource adapter — every run pulls arrivals through a source
  // cursor; the Instance form is the materialized special case.
  void Reset(const Instance& instance, EngineOptions options);
  // Same-options rebind (keeps the options from the previous bind).
  void Reset(const Instance& instance);

  // Rebinds the session to a streaming tenant: arrivals are pulled from
  // `source` (NextRound per simulated round, Reset at BeginRun), and the
  // policy sees source.shape() as its Instance. `source` must outlive all
  // runs against it and not be shared with another engine. Results are
  // bit-identical to running the materialized equivalent
  // (workload::Materialize) of the source.
  void Reset(workload::ArrivalSource& source, EngineOptions options);
  void Reset(workload::ArrivalSource& source);

  // Runs the policy over the whole instance (rounds 0..horizon inclusive, so
  // every job either executes or drops) and returns the outcome.
  RunResult Run(SchedulerPolicy& policy);

  // ---- Incremental session stepping (FleetRunner's interface) ----------
  //
  //   engine.BeginRun(policy);
  //   while (engine.StepRounds(bucket)) {}
  //   engine.FinishRun(result);
  //
  // is equivalent to result = engine.Run(policy) for any bucket size.

  // Opens a run: clears all per-run state, resets the policy. One run may
  // be open at a time.
  void BeginRun(SchedulerPolicy& policy);

  // Simulates up to max_rounds further rounds; returns true while rounds
  // remain. max_rounds must be >= 1.
  bool StepRounds(Round max_rounds);

  // Closes the run and fills `result` (overwriting it; its buffers are
  // reused). Requires StepRounds to have exhausted the horizon.
  void FinishRun(RunResult& result);

  // Closes an open run without producing a result, at any point. The fault
  // paths (worker kill, tenant eviction) snapshot a run and then abandon the
  // local copy; the session is immediately reusable for another tenant.
  void AbortRun();

  bool running() const { return running_; }
  // The next round BeginRun/StepRounds will simulate.
  Round next_round() const;

  // Mid-run accumulators (valid while a run is open): the cost and execution
  // count over the rounds simulated so far, and color c's pending jobs.
  // Golden-trace tests hash these per round; fleet::TickCore reports them
  // as tenant progress; reduce::OnlineSolver derives a round's executions
  // from the pending counts.
  const CostBreakdown& run_cost() const;
  uint64_t run_executed() const;
  uint64_t run_pending(ColorId c) const;

  // ---- Checkpoint/restore (snapshot/codec.h) ---------------------------
  //
  // SnapshotRun serializes the open run at a StepRounds boundary: the full
  // run state (rings, wheel, pending counts, accumulators) followed by the
  // policy's state. The words depend only on the run, not on what the
  // session served before. RestoreRun is the inverse: on a session Reset
  // against the *same* instance and options it opens a run (BeginRun
  // semantics: resets the policy, rebinds the arena) and overwrites its
  // state from the snapshot, rejecting words no run could have written.
  // Stepping the restored session to the horizon yields results
  // bit-identical to the uninterrupted run — on this engine, or on any other
  // engine bound to an equal instance (worker migration).
  // Recording runs (options.record_schedule) cannot be snapshotted: the
  // partial Schedule is an unbounded log, not session state.
  //
  // Source-bound sessions: the engine snapshot's byte format is unchanged
  // (it never contains source state). On restore, the bound source is
  // repositioned — from `source_state` (a reader over the source's own
  // SaveState words; O(source state), the dist migration path) when given,
  // else by SeekRound replay (deterministic re-execution).
  void SnapshotRun(snapshot::Writer& w) const;
  void RestoreRun(SchedulerPolicy& policy, snapshot::Reader& r,
                  snapshot::Reader* source_state = nullptr);

  const EngineOptions& options() const { return options_; }
  // The bound tenant's Instance: the full instance when Instance-bound, the
  // source's shape() (color table) when source-bound.
  const Instance& instance() const { return *instance_; }
  // The bound arrival source (the engine-owned InstanceSource adapter when
  // Instance-bound).
  const workload::ArrivalSource& source() const;

 private:
  // The width-1 lane set over core/round_loop.h: all simulation state,
  // including the InstanceSource adapter of Instance-bound runs.
  struct Loop;

  // Shared body of the Reset overloads (source == nullptr: instance-fed).
  void Bind(const Instance& shape, workload::ArrivalSource* source,
            const EngineOptions& options);

  const Instance* instance_ = nullptr;
  // Non-null iff bound via Reset(ArrivalSource&); otherwise the loop's
  // InstanceSource adapter backs the run.
  workload::ArrivalSource* external_source_ = nullptr;
  EngineOptions options_;
  // The session arena, reused across tenants.
  std::unique_ptr<Loop> loop_;
  bool running_ = false;
};

// Convenience helper: construct a fresh engine and run one policy. This is
// deliberately *not* pooled — differential tests use it as the
// fresh-construction oracle that session reuse must match bit for bit.
RunResult RunPolicy(const Instance& instance, SchedulerPolicy& policy,
                    const EngineOptions& options);

}  // namespace rrs
