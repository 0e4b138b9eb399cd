// TickCore: one shard's tenant lifecycle, shared by every fleet runner.
//
// FleetRunner and the dist worker both run the paper's four-phase round on
// pooled sessions through the same loop: bind a waiting tenant to a warm
// session (admit), advance every live tenant one round bucket (step), and
// fold each completion into results, stats and the obs plane. The dist
// fleet's migration and failover paths add checkpoint, evict and restore.
// TickCore owns that lifecycle once; each runner keeps only what differs
// between them — where tenants come from, how many may be live, and where
// progress and results go (a TickSink).
//
// What a core owns:
//
//  - pooled scalar sessions (one Engine + one policy each, rebound per
//    tenant through Reset — core/session.h);
//  - pooled BatchEngine slabs when batch_width > 1: batch-eligible replay
//    tenants are packed into a filling slab of their exact shape (slabs
//    take lanes only before their first step), or open a new one; the rest
//    fall back to scalar sessions. Results are bit-identical either way;
//  - each streaming tenant's ArrivalSource, built at admission or restore
//    and owned for the tenant's lifetime;
//  - one live count: scalar sessions plus open lanes;
//  - the checkpoint layout: the engine's SnapshotRun words followed, for a
//    streaming tenant, by its source's SaveState words. This file and
//    tick_core.cpp are the only places that layout is written or read.
//
// Observation is pure (results never depend on it) and optional: an
// SloTracker fed at every tick barrier, a flight-recorder ring for
// admit/finish/restore/slab/tick events, and per-tenant trace spans when the
// scope carries a tracer. All of it is erased at RRS_OBS_LEVEL=0.
//
// A core is not synchronized: it is touched by one thread at a time (the
// runners' shard → worker affinity).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/cost.h"
#include "core/engine.h"
#include "core/instance.h"
#include "core/session.h"
#include "fleet/fleet_runner.h"
#include "snapshot/codec.h"

namespace rrs {

namespace obs {
class FlightRing;
class Scope;
}  // namespace obs

namespace workload {
class ArrivalSource;
}  // namespace workload

namespace fleet {

class SloTracker;

// Where a core's tick output goes. Tenants are the uint64_t ids the runner
// admitted them under.
class TickSink {
 public:
  virtual ~TickSink() = default;

  // The RunResult a finishing tenant's run is written into (overwritten in
  // place; must stay valid until the next sink call).
  virtual RunResult& Completion(uint64_t tenant) = 0;

  // A tenant still live after this tick: rounds advanced so far and the
  // cost accumulated over them.
  virtual void Progress(uint64_t /*tenant*/, uint64_t /*rounds*/,
                        const CostBreakdown& /*cost*/) {}

  // One simulated round of a scalar session (trace_rounds cores only):
  // the next round to simulate and the running totals after this one.
  virtual void Round(uint64_t /*tenant*/, uint64_t /*round*/,
                     const CostBreakdown& /*cost*/, uint64_t /*executed*/) {}
};

// The in-process runners' sink: completions land in a result vector
// indexed by tenant (the job index).
class ResultSink final : public TickSink {
 public:
  explicit ResultSink(std::span<RunResult> results) : results_(results) {}
  RunResult& Completion(uint64_t tenant) override { return results_[tenant]; }

 private:
  std::span<RunResult> results_;
};

struct TickCoreOptions {
  // Builds one policy per pooled session and per slab lane, the lane's when
  // it first opens. Required.
  std::function<std::unique_ptr<SchedulerPolicy>()> policy_factory;
  // Rounds each live tenant advances per Step.
  Round rounds_per_tick = 64;
  // Slab width for batch lanes (fleet/batch_engine.h); 0 or 1 = scalar
  // sessions only.
  uint32_t batch_width = 0;
  // Step scalar sessions one round at a time and report every round through
  // TickSink::Round (the dist worker's golden-trace rows). Scalar only.
  bool trace_rounds = false;

  // Observation. `shard` is the SloTracker shard and the flight-event tag.
  size_t shard = 0;
  SloTracker* slo = nullptr;
  obs::FlightRing* ring = nullptr;
  // Per-tenant step spans named `trace_label` when the scope has a tracer.
  obs::Scope* scope = nullptr;
  const char* trace_label = "fleet.session";
};

class TickCore {
 public:
  explicit TickCore(TickCoreOptions options);
  ~TickCore();

  TickCore(const TickCore&) = delete;
  TickCore& operator=(const TickCore&) = delete;

  // Binds replay tenant `job` to a pooled session or slab lane. Streaming
  // jobs (make_source / source_spec) get their source built here. An
  // instance-fed job's Instance must outlive the tenant's run; `job` itself
  // need not.
  void Admit(uint64_t tenant, const FleetJob& job);

  // Resumes a tenant from Checkpoint() words on a scalar session (a fresh
  // source is built for a streaming job and loaded from the words). Exempt
  // from any live cap the runner keeps: a checkpointed tenant must come
  // back regardless of load.
  void Restore(uint64_t tenant, const FleetJob& job,
               std::span<const uint64_t> checkpoint);

  // One tick: advances every live tenant one round bucket, reports
  // progress and completions to `sink`, releases finished sessions and
  // drained slabs. A core with nothing live does nothing (no tick counted).
  void Step(TickSink& sink);

  // Folds a tenant the runner ran to completion outside the core
  // (FleetRunner's pipeline tenants): counts it and its rounds and feeds
  // the SLO tracker — with `drops_per_color`, its drops per color of
  // `shape` — and the flight recorder.
  void Complete(uint64_t tenant, const Instance& shape,
                const RunResult& result,
                std::span<const uint64_t> drops_per_color);

  // ---- Scalar sessions, indexed [0, sessions()) in admission/restore order
  // (Slab lanes are not addressable: they are never checkpointed.)
  size_t sessions() const { return live_.size(); }
  uint64_t tenant(size_t i) const { return live_[i].tenant; }
  const Engine& engine(size_t i) const { return live_[i].session->engine; }
  std::optional<size_t> Find(uint64_t tenant) const;

  // Writes session i's checkpoint into `w` (cleared first).
  void Checkpoint(size_t i, snapshot::Writer& w) const;

  // Closes session i mid-run — after writing its checkpoint into
  // `checkpoint` when non-null — and returns the session to the pool.
  // Later sessions keep their order.
  void Evict(size_t i, snapshot::Writer* checkpoint);

  // Live tenants: scalar sessions plus open slab lanes.
  size_t live() const { return live_.size() + lanes_; }

  // Cumulative stats; sessions_created/recycled count scalar sessions.
  FleetStats stats() const;

 private:
  struct Session {
    Engine engine;
    std::unique_ptr<SchedulerPolicy> policy;
  };
  struct Live {
    std::unique_ptr<Session> session;
    uint64_t tenant = 0;
    // Streaming tenants' source (the engine holds a reference into it).
    std::unique_ptr<workload::ArrivalSource> source;
  };
  struct Slab;

  // Appends a live scalar session Reset onto the job (and its source, if
  // streaming); the caller opens its run.
  Session& Bind(uint64_t tenant, const FleetJob& job,
                std::unique_ptr<workload::ArrivalSource> source);
  void OpenLane(uint64_t tenant, const FleetJob& job,
                std::unique_ptr<workload::ArrivalSource> source);
  // Steps one scalar session; returns true while it has rounds left.
  bool Advance(Engine& engine, uint64_t tenant, TickSink& sink);
  void StepSlabs(TickSink& sink);
  void Progress(TickSink& sink, uint64_t tenant, uint64_t rounds,
                const CostBreakdown& cost);
  void Finished(uint64_t tenant, const Instance& shape,
                const RunResult& result,
                std::span<const uint64_t> drops_per_color);
  // Flight event stamped with the tick's one clock read.
  void Record(uint32_t type, uint64_t arg1, uint64_t arg2 = 0);

  TickCoreOptions options_;
  uint64_t full_mask_ = 0;  // every lane of a batch_width slab open
  SessionPool<Session> pool_;
  SessionPool<Slab> slab_pool_;
  std::vector<Live> live_;
  std::vector<std::unique_ptr<Slab>> slabs_;
  size_t lanes_ = 0;  // open lanes across slabs_
  FleetStats stats_;
  uint64_t now_ns_ = 0;
  bool stamped_ = false;
};

}  // namespace fleet
}  // namespace rrs
