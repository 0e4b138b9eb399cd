// ChaosFleetRunner: FleetRunner's fault-injecting sibling, built on the
// snapshot layer (snapshot/codec.h, Engine::SnapshotRun/RestoreRun).
//
// The runner multiplexes replay tenants across workers exactly like
// fleet/FleetRunner — each worker is one fleet::TickCore
// (fleet/tick_core.h) — but advances the whole fleet in *lock-step global
// ticks*: every worker steps its live sessions one round bucket in
// parallel, then a single-threaded coordinator injects faults drawn from a
// seeded plan RNG at the tick barrier. Because worker state is disjoint
// within a tick and every fault decision happens in the serial
// coordinator, the entire execution — fault plan, migration targets, final
// results — is a pure function of (jobs, options.seed), independent of
// thread count.
//
// Fault kinds (all driven by the plan RNG, all at round boundaries):
//
//   kill-worker       every live session on one worker is checkpointed, its
//                     live set is wiped, and the snapshots are redistributed
//                     round-robin to the surviving workers, which restore
//                     and resume them on the next tick;
//   evict-and-restore one live tenant is checkpointed, torn down, and
//                     queued for restore on a (possibly different) worker;
//   delayed restore   an eviction whose restore is held for 1..max ticks —
//                     the snapshot bytes are the only surviving record of
//                     the tenant while it is in limbo;
//   shard rebalance   all not-yet-admitted jobs are collected and dealt out
//                     round-robin from a random offset, changing which
//                     worker will run them.
//
// The headline guarantee — checked by tests/chaos_test.cpp at 0/1/2/8
// threads — is that per-tenant RunResults are bit-identical to a fault-free
// fleet run: checkpoint/restore is exact, so arbitrarily interrupted and
// migrated sessions finish indistinguishably from undisturbed ones.
//
// Chaos events surface as fleet.chaos.* counters and (with a tracing scope)
// per-event spans on the coordinator's thread track.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/engine.h"
#include "core/instance.h"
#include "fleet/fleet_runner.h"
#include "util/rng.h"

namespace rrs {

class ThreadPool;

namespace obs {
class FlightRing;
}  // namespace obs

namespace fleet {

struct ChaosOptions {
  // Worker pool. nullptr steps every worker serially in the caller — the
  // deterministic "0 threads" mode the differential tests pin against.
  ThreadPool* pool = nullptr;
  // Fixed worker count (unlike FleetRunner it does not default to the pool
  // width: the fault plan is defined over worker indices, so the same seed
  // must mean the same plan at every thread count).
  size_t num_workers = 4;
  // Rounds each live session advances per tick; faults land between ticks.
  Round rounds_per_tick = 32;
  // Cap on simultaneously live sessions per worker; 0 = admit every
  // assigned job at once. Restores are exempt (a checkpointed tenant must
  // come back regardless of load).
  size_t max_live_sessions = 0;
  // Seed of the fault plan RNG.
  uint64_t seed = 0xc4a05;
  // Per-tick firing probabilities of each fault kind. A fault that fires
  // with no target (e.g. kill on an empty fleet) counts as a no-op.
  double kill_worker_prob = 0.10;
  double evict_prob = 0.35;
  double rebalance_prob = 0.15;
  // Evictions hold their restore for 1..max_restore_delay_ticks extra ticks
  // with probability delayed_restore_prob (0 => immediate restores only).
  double delayed_restore_prob = 0.5;
  uint32_t max_restore_delay_ticks = 3;
  // Builds the scheduler for replay sessions; must produce identically
  // parameterized policies (a restored tenant resumes on a fresh policy
  // instance). Defaults to ΔLRU-EDF with default parameters.
  std::function<std::unique_ptr<SchedulerPolicy>()> policy_factory;
  // Absorbs fleet.chaos.* counters after each RunAll (may be null). With a
  // tracer, per-event spans are emitted as `trace_label`.* on the
  // coordinator's track and per-session work on worker tracks.
  obs::Scope* scope = nullptr;
  const char* trace_label = "fleet.chaos";
  // Per-tenant SLO tracking (fleet/slo.h): bound per RunAll, fed at tick
  // barriers (accounting follows the tenant across evictions/migrations),
  // absorbed into `scope` as fleet.slo.*. Erased at RRS_OBS_LEVEL=0.
  SloTracker* slo = nullptr;
  // Flight recorder: each worker records tick/admit/finish/restore events
  // into "chaos.worker<i>"; the serial coordinator records fault decisions
  // (kill/evict/rebalance) into "chaos.coord". Erased at RRS_OBS_LEVEL=0.
  obs::FlightRecorder* recorder = nullptr;
};

struct ChaosStats {
  uint64_t ticks = 0;
  uint64_t kills = 0;             // kill-worker faults with >= 1 victim
  uint64_t evictions = 0;         // evict-and-restore faults (incl. delayed)
  uint64_t delayed_restores = 0;  // evictions held for >= 1 extra tick
  uint64_t rebalances = 0;        // shard-rebalance faults that moved jobs
  uint64_t restores = 0;          // sessions resumed from a snapshot
  uint64_t migrations = 0;        // restores on a different worker
  uint64_t noop_faults = 0;       // faults that fired with no target
  uint64_t snapshot_words = 0;    // total codec words written
  uint64_t sessions_completed = 0;
  uint64_t rounds_stepped = 0;

  void MergeFrom(const ChaosStats& other);
};

class ChaosFleetRunner {
 public:
  explicit ChaosFleetRunner(ChaosOptions options);
  ~ChaosFleetRunner();

  ChaosFleetRunner(const ChaosFleetRunner&) = delete;
  ChaosFleetRunner& operator=(const ChaosFleetRunner&) = delete;

  // Runs every job to completion under the seeded fault plan and returns
  // one RunResult per job, in job order. Only replay jobs are supported
  // (pipeline tenants run to completion within one admission and present no
  // checkpoint seam; schedule-recording runs cannot be snapshotted).
  // Streaming jobs checkpoint their source state with the engine's.
  std::vector<RunResult> RunAll(std::span<const FleetJob> jobs);

  // Stats accumulated over all RunAll calls so far (coordinator events plus
  // per-worker restore/step counts).
  ChaosStats stats() const;

  size_t num_workers() const { return workers_.size(); }

 private:
  // A tenant checkpoint in transit between workers (or in delayed-restore
  // limbo): the codec words plus where it came from.
  struct Checkpoint {
    size_t job_index = 0;
    uint32_t delay_ticks = 0;  // restore when this reaches 0
    size_t from_worker = 0;
    std::vector<uint64_t> words;
  };
  struct Worker;

  // One worker's tick on its TickCore: restore due checkpoints, admit
  // waiting tenants up to the live cap, step.
  void TickWorker(Worker& worker, std::span<const FleetJob> jobs,
                  std::span<RunResult> results);
  // Serial fault injection at the tick barrier; returns true while any work
  // (live, waiting, or checkpointed) remains anywhere.
  bool InjectFaults();

  ChaosOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  Rng plan_rng_;
  ChaosStats stats_;
  obs::FlightRing* coord_ring_ = nullptr;  // set per RunAll when recording
  // Coordinator scratch, reused across events (SnapshotRun words and the
  // rebalance gather buffer).
  snapshot::Writer snapshot_scratch_;
  std::vector<size_t> rebalance_scratch_;
};

}  // namespace fleet
}  // namespace rrs
