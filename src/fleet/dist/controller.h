// DistController: the control plane of the sharded multi-process fleet.
//
// Start() forks one worker process per slot (fleet/dist/worker.h event
// loops, one Unix-domain socketpair each — forked *before* any thread
// exists in this process, so the children are single-threaded at birth).
// AddJobs ships a deduplicated instance table to every worker and places
// tenants with a deterministic least-outstanding policy; Run() drives
// lock-step global ticks: broadcast kMsgTick, collect every TickReport at
// the barrier, and fold the per-tenant rows into controller-side state —
//
//   - the SloTracker (fleet/slo.h): one Observe per live tenant per tick
//     from the report's cumulative (rounds, misses) rows. Tracking lives in
//     the controller precisely so it follows tenants across migrations and
//     failovers: per-tenant windows are a pure function of the observation
//     sequence, and a high-water-mark guard drops the re-observations a
//     checkpoint-rewound tenant replays, so the totals match a
//     never-migrated fleet exactly;
//   - optional golden-trace digests: per-round accumulator rows folded into
//     a per-tenant SHA-256 (the tests' TraceDigest format), again
//     migration-proof because the fold happens here, not on the worker;
//   - the checkpoint stream: every checkpoint_interval_ticks the workers
//     snapshot all live tenants and the controller keeps the latest words
//     per tenant — the recovery source for KillWorker failover.
//
// Placement changes only happen between ticks, when every worker is
// quiesced at the barrier:
//
//   migration   EvictTenant on the source (quiesce → checkpoint), ship,
//               RestoreTenant on the target — the snapshot codec words are
//               the wire format, so the move is bit-identical to staying
//               put;
//   failover    KillWorker SIGKILLs a worker; its tenants restore from
//               their latest streamed checkpoint on the least-loaded
//               survivors (or restart from scratch if never checkpointed) —
//               deterministic re-execution makes results bit-identical;
//   shedding    scripted or burn-driven (shed_burn_threshold): tenants
//               whose SLO window burn exceeds the threshold are evicted
//               without their checkpoint at the barrier and retired from
//               the SLO tracker — the admission-control overload valve.
//
// Migration and failover place a tenant through one restore-or-requeue
// step (PlaceTenant): restore from checkpoint words when there are any,
// else re-ship the spec so the tenant starts from scratch.
//
// Determinism: worker count, thread counts, and tick pacing never change
// per-tenant results; the scripted event APIs (ScheduleMigration /
// ScheduleKill / ScheduleShed) pin *when* faults land so differential tests
// can replay them exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "fleet/dist/protocol.h"
#include "fleet/fleet_runner.h"
#include "fleet/slo.h"
#include "util/sha256.h"

namespace rrs {
namespace obs {
class Scope;
class ExportServer;
}  // namespace obs

namespace fleet {
namespace dist {

struct DistOptions {
  size_t num_workers = 2;
  // Per-worker configuration, shipped verbatim as kMsgConfig. The
  // controller drives the checkpoint cadence from
  // worker.checkpoint_interval_ticks (the flag rides on each kMsgTick).
  WireConfig worker;
  // Controller-side SLO tracking (requires worker.report_slo).
  bool track_slo = true;
  SloOptions slo;
  // Fold per-tenant golden-trace digests (requires worker.report_trace and
  // worker.collect_results; workers single-step rounds to emit the rows).
  bool trace_digests = false;
  // > 0: at each barrier, shed any tenant whose current-window burn
  // (misses / budget) exceeds this — overload admission control.
  double shed_burn_threshold = 0.0;
  // Absorbs dist.* counters after Run (may be null). The SLO series are the
  // tracker's own (fleet/slo.h), served by the export server below.
  obs::Scope* scope = nullptr;
  // Controller ExportServer: /metrics (scope + SLO section), /tenants,
  // /workers. Started after the forks (children stay thread-free).
  bool serve_metrics = false;
  uint16_t metrics_port = 0;  // 0 = ephemeral
  // Per-frame deadline on worker replies; a wedged worker fails the run in
  // bounded time instead of hanging the controller.
  int64_t io_timeout_ms = 60000;
};

struct DistStats {
  uint64_t ticks = 0;
  uint64_t completed = 0;
  uint64_t rounds_stepped = 0;
  uint64_t migrations = 0;
  uint64_t kills = 0;
  uint64_t restored_from_checkpoint = 0;
  uint64_t restarted_from_scratch = 0;
  uint64_t shed = 0;
  uint64_t checkpoint_words = 0;
};

class DistController {
 public:
  explicit DistController(DistOptions options);
  ~DistController();  // Shutdown() if still running

  DistController(const DistController&) = delete;
  DistController& operator=(const DistController&) = delete;

  // Forks the workers and completes the Hello/Config handshake. False with
  // *error on failure. Call exactly once, before any threads exist in this
  // process (the forked children must be single-threaded).
  bool Start(std::string* error = nullptr);

  // Registers jobs (replay kind only; record_schedule and obs_scope do not
  // travel), ships new instances — and, for streaming jobs, new
  // GeneratorSpecs — to every worker, and places the tenants on the
  // least-outstanding workers. Callable between Start and Run.
  void AddJobs(std::span<const FleetJob> jobs);

  // Scripted fault plan, executed at the barrier after tick `tick` (1-based;
  // tick t means "after the fleet has stepped t round buckets").
  void ScheduleMigration(uint64_t tick, uint64_t tenant, size_t target);
  void ScheduleKill(uint64_t tick, size_t worker);
  void ScheduleShed(uint64_t tick, uint64_t tenant);

  // Ticks the fleet until every tenant is done or shed; returns one
  // RunResult per job in job order (shed tenants keep a default result —
  // see tenant_shed). Absorbs dist.* metrics into the scope.
  std::vector<RunResult> Run();

  // Orderly shutdown: kMsgShutdown to every live worker, collect Bye,
  // reap children. Idempotent; the destructor calls it.
  void Shutdown();

  size_t num_workers() const { return workers_.size(); }
  size_t alive_workers() const;
  const DistStats& stats() const { return stats_; }
  // Controller-side tracker (null unless track_slo). Valid after Run.
  const SloTracker* slo() const { return slo_.get(); }
  // 64-hex golden-trace digest of a completed tenant ("" unless
  // trace_digests and the tenant finished).
  std::string trace_digest(uint64_t tenant) const;
  bool tenant_shed(uint64_t tenant) const;
  uint16_t metrics_port() const;
  // Per-worker scrape ports (0 = worker has no exporter or is dead).
  std::vector<uint64_t> worker_metrics_ports() const;

 private:
  enum class Phase : uint8_t { kAssigned, kDone, kShed };

  struct Tenant {
    TenantSpec spec;
    // The tenant's shape for SLO accounting: the job's instance, or for
    // streaming tenants the shape() of the controller's local instantiation
    // of their spec (source_shapes_).
    const Instance* instance = nullptr;
    size_t worker = 0;
    Phase phase = Phase::kAssigned;
    // High-water marks: the failover-rewind guard. A tenant restored from
    // a checkpoint replays rounds the controller already folded; rows at or
    // below the mark are dropped so SLO windows and digests see every round
    // exactly once.
    uint64_t slo_hw = 0;
    uint64_t trace_hw = 0;
    Sha256 digest;
    std::string digest_hex;
    TenantCheckpoint checkpoint;  // latest streamed checkpoint
    bool has_checkpoint = false;
  };

  struct WorkerHandle {
    size_t index = 0;
    int64_t pid = 0;
    int fd = -1;
    bool alive = false;
    uint64_t metrics_port = 0;
    uint64_t outstanding = 0;  // assigned, not yet done/shed
    uint64_t live = 0;         // as of the last TickReport
    uint64_t waiting = 0;
    uint64_t tick_wall_ns = 0;
  };

  struct ScheduledEvent {
    uint64_t tick = 0;
    uint64_t tenant = 0;  // or worker index for kills
  };

  void SendTo(WorkerHandle& worker, uint64_t type);
  void Expect(WorkerHandle& worker, uint64_t want);
  // Expect, then decode the reply's body.
  template <class T>
  T Receive(WorkerHandle& worker, uint64_t want);
  size_t LeastOutstandingAlive(size_t exclude) const;
  // Feeds the SLO tracker one cumulative progress row, behind slo_hw.
  void ObserveSlo(Tenant& tenant, uint64_t rounds, uint64_t misses);
  void ProcessTickReport(WorkerHandle& worker, std::vector<RunResult>& results);
  bool MigrateTenant(uint64_t tenant, size_t target);
  void KillWorker(size_t worker);
  bool ShedTenant(uint64_t tenant);
  // Takes a tenant off its worker, with its checkpoint words when asked.
  TenantEvicted Evict(Tenant& tenant, bool checkpoint);
  // Restores the tenant on `target` from `checkpoint`, or, when there is
  // none, requeues its spec there to start from scratch.
  void PlaceTenant(Tenant& tenant, size_t target,
                   const TenantCheckpoint* checkpoint);
  void PublishWorkers();

  DistOptions options_;
  std::vector<WorkerHandle> workers_;
  std::vector<Tenant> tenants_;
  std::vector<std::pair<const Instance*, uint32_t>> instance_ids_;
  uint32_t next_instance_id_ = 0;
  // Streaming tenants: deduplicated GeneratorSpec table (by spec pointer,
  // mirroring instance dedup) plus one locally instantiated source per spec
  // — the controller never steps these; they exist so tenant.instance can
  // point at a shape (color table) for SLO Finish accounting.
  std::vector<std::pair<const workload::GeneratorSpec*, uint32_t>> source_ids_;
  std::vector<std::unique_ptr<workload::ArrivalSource>> source_shapes_;
  uint32_t next_source_id_ = 0;
  uint64_t tick_ = 0;
  uint64_t remaining_ = 0;  // tenants neither done nor shed
  std::vector<ScheduledEvent> migrations_;  // tenant + target packed below
  std::vector<size_t> migration_targets_;
  std::vector<ScheduledEvent> kills_;
  std::vector<ScheduledEvent> sheds_;
  std::unique_ptr<SloTracker> slo_;
  DistStats stats_;
  bool running_ = false;
  snapshot::Writer send_scratch_;
  std::vector<uint64_t> recv_scratch_;
  std::unique_ptr<obs::Scope> own_scope_;
  std::unique_ptr<obs::ExportServer> exporter_;
  // Scrape-visible copy of the worker table, refreshed at each barrier
  // under its own lock (the export thread reads while Run mutates).
  mutable std::mutex publish_mutex_;
  std::vector<WorkerHandle> published_workers_;
};

}  // namespace dist
}  // namespace fleet
}  // namespace rrs
