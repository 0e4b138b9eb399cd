// FleetRunner: multiplexes thousands of independent online sessions across
// the thread pool.
//
// The unit of work is a FleetJob — one tenant: a workload (a materialized
// Instance, or a streaming ArrivalSource built at admission) plus engine
// options, run either as a bare replay (a registry policy on the Engine) or
// through the guaranteed Theorem-3 pipeline (VarBatch ∘ Distribute ∘
// ΔLRU-EDF). Jobs are independent by construction, so a fleet of N tenants
// is embarrassingly parallel; what the runner adds over a plain ParallelFor
// is the *session economy*:
//
//  - shard → worker affinity: jobs are assigned to shards by index
//    (j % num_shards) and each shard's state is touched by exactly one
//    worker per RunAll, so shard-local session pools need no locks;
//  - pooled session recycling: each shard is a fleet::TickCore
//    (fleet/tick_core.h) — pooled replay sessions and batch slabs — plus a
//    pool of pipeline sessions; a tenant acquires a warm session,
//    Reset-binds it, and returns it — after warmup the fleet allocates
//    nothing per tenant at a fixed shape (core/session.h);
//  - batched round-stepping: live replay tenants advance in round buckets
//    of `rounds_per_tick`, interleaving thousands of concurrent tenants per
//    shard at bounded per-tenant latency (the shape a real multi-tenant
//    control plane has, and what bench_fleet measures as sessions/s and
//    rounds/s);
//  - per-shard stats, merged after the sweep and absorbed into the obs
//    Scope as fleet.* counters.
//
// Results are bit-identical to fresh single-engine runs of the same jobs,
// for any shard count and any thread count (including the serial pool-less
// mode) — pinned by tests/fleet_test.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/engine.h"
#include "core/instance.h"
#include "core/session.h"
#include "reduce/pipeline.h"
#include "sched/dlru_edf.h"

namespace rrs {

class ThreadPool;

namespace obs {
class FlightRecorder;
}  // namespace obs

namespace workload {
class ArrivalSource;
struct GeneratorSpec;
}  // namespace workload

namespace fleet {

class SloTracker;

// One tenant of the fleet. Exactly one of `instance` / `make_source` binds
// the workload:
//
//  - `instance` (not owned; must outlive RunAll): the materialized form —
//    the tenant replays the instance's job list.
//  - `make_source`: the streaming form — called once, at admission, to
//    build the tenant's private ArrivalSource (workload/arrival_source.h);
//    the runner owns the source for the session's lifetime and the engine
//    pulls rounds from it. Queued tenants hold only the closure, so a
//    100k-tenant fleet materializes at most max_live_sessions sources at a
//    time instead of 100k job vectors (bench_fleet's fleet/mem cells).
//    Streaming tenants must be kReplay (the pipeline's transform chain
//    needs the materialized job list).
//  - `source_spec` (not owned; must outlive RunAll): the wire-compact
//    streaming form — the runner instantiates MakeSource(*source_spec) at
//    admission. The only streaming form DistController accepts (closures
//    cannot ship to a worker process). When both are set, make_source wins
//    locally.
struct FleetJob {
  enum class Kind {
    kReplay,    // run options + a policy from the runner's factory
    kPipeline,  // run reduce::SolveOnline semantics through a pooled session
  };

  const Instance* instance = nullptr;
  std::function<std::unique_ptr<workload::ArrivalSource>()> make_source;
  const workload::GeneratorSpec* source_spec = nullptr;
  EngineOptions options;
  Kind kind = Kind::kReplay;
};

struct FleetOptions {
  // Worker pool. nullptr runs every shard serially in the caller — the
  // deterministic "0 threads" mode the differential tests pin against.
  ThreadPool* pool = nullptr;
  // Shard count; 0 = one shard per pool thread (or 1 without a pool).
  // Sharding never changes results, only contention and pool reuse.
  size_t num_shards = 0;
  // Rounds each live session advances per scheduling tick.
  Round rounds_per_tick = 64;
  // Cap on simultaneously live replay sessions per shard; 0 = admit every
  // assigned job at once. A cap bounds fleet memory at huge tenant counts
  // (each live session holds an engine arena). Batched lanes count toward
  // the cap one-for-one.
  size_t max_live_sessions = 0;
  // Lane-parallel batched execution (fleet/batch_engine.h): replay tenants
  // of equal shape are packed `batch_width` to a slab and advance in
  // lock-step through shared SoA state. 0 or 1 = scalar engines only.
  // Tenants a slab cannot take (pipeline jobs, record_schedule, an explicit
  // obs scope, or no same-shape slab filling at admission time) fall back to
  // scalar sessions; results are bit-identical either way. Max 64.
  uint32_t batch_width = 0;
  // Builds the scheduler for replay sessions (one per pooled session or
  // opened slab lane, reused across tenants via SchedulerPolicy::Reset).
  // Defaults to ΔLRU-EDF with default parameters.
  std::function<std::unique_ptr<SchedulerPolicy>()> policy_factory;
  // Parameters for pipeline sessions (kPipeline jobs).
  DlruEdfPolicy::Params pipeline_params;
  // Absorbs fleet.* counters after each RunAll (may be null). When the scope
  // has a tracer, per-tenant work is emitted as spans named `trace_label`
  // (arg = job index) on each worker's thread track.
  obs::Scope* scope = nullptr;
  const char* trace_label = "fleet.session";
  // Per-tenant SLO tracking (fleet/slo.h). When set, RunAll re-Binds the
  // tracker to (jobs, shards), observes every live tenant at each tick
  // barrier and publishes per-shard snapshots for live scrapes; the
  // tracker's own section serves the fleet.slo.* series. Pure observation —
  // results stay bit-identical. Erased at RRS_OBS_LEVEL=0.
  SloTracker* slo = nullptr;
  // Flight recorder (obs/flight_recorder.h): each shard records
  // tick/admit/finish, slab open/close, and SLO-exhaustion events into its
  // own ring ("fleet.shard<i>"). Erased at RRS_OBS_LEVEL=0.
  obs::FlightRecorder* recorder = nullptr;
};

// Aggregated (or per-shard) fleet statistics.
struct FleetStats {
  uint64_t sessions_completed = 0;
  uint64_t rounds_stepped = 0;
  uint64_t sessions_created = 0;   // pool growth (cold sessions)
  uint64_t sessions_recycled = 0;  // tenants served by a warm session
  uint64_t peak_live_sessions = 0; // max concurrently live, any shard
  uint64_t ticks = 0;              // scheduling ticks across shards

  // Batched-execution occupancy (zero when batch_width <= 1).
  uint64_t batched_sessions = 0;   // tenants run on slab lanes
  uint64_t fallback_sessions = 0;  // batch-ineligible replay tenants
  uint64_t lane_rounds_stepped = 0;  // per-lane rounds (occupancy numerator)
  uint64_t slab_rounds_stepped = 0;  // slab lock-step rounds (denominator)

  void MergeFrom(const FleetStats& other);
};

class FleetRunner {
 public:
  explicit FleetRunner(FleetOptions options);
  ~FleetRunner();

  FleetRunner(const FleetRunner&) = delete;
  FleetRunner& operator=(const FleetRunner&) = delete;

  // Runs every job to completion and returns one RunResult per job, in job
  // order. Replay jobs return the engine's RunResult verbatim; pipeline
  // jobs return a synthesized RunResult carrying the *certified* cost
  // (validation against the original instance), arrivals, executions, and
  // the inner run's telemetry. Callable repeatedly; session pools persist
  // across calls, so later fleets start warm.
  std::vector<RunResult> RunAll(std::span<const FleetJob> jobs);

  // Stats accumulated over all RunAll calls so far.
  FleetStats stats() const;

  size_t num_shards() const { return shards_.size(); }

 private:
  struct Shard;

  // Drives one shard's TickCore over jobs shard_index, shard_index + stride,
  // ... to completion.
  void RunShard(Shard& shard, std::span<const FleetJob> jobs,
                std::span<RunResult> results, size_t shard_index,
                size_t stride);

  FleetOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace fleet
}  // namespace rrs
