#include "fleet/dist/controller.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "fleet/dist/worker.h"
#include "net/socket.h"
#include "obs/export_server.h"
#include "obs/level.h"
#include "obs/scope.h"
#include "util/check.h"

namespace rrs {
namespace fleet {
namespace dist {

DistController::DistController(DistOptions options)
    : options_(std::move(options)) {
  RRS_CHECK_GE(options_.num_workers, 1u);
  RRS_CHECK_GE(options_.worker.rounds_per_tick, 1);
  if (options_.track_slo) {
    RRS_CHECK(options_.worker.report_slo)
        << "track_slo needs worker.report_slo progress rows";
    slo_ = std::make_unique<SloTracker>(options_.slo);
  }
  if (options_.trace_digests) {
    RRS_CHECK(options_.worker.report_trace)
        << "trace_digests needs worker.report_trace rows";
    RRS_CHECK(options_.worker.collect_results)
        << "trace_digests folds the final result (collect_results)";
  }
  if (options_.shed_burn_threshold > 0) {
    RRS_CHECK(options_.track_slo)
        << "burn-driven shedding needs the SLO tracker";
  }
}

DistController::~DistController() { Shutdown(); }

bool DistController::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    Shutdown();
    return false;
  };
  RRS_CHECK(!running_ && workers_.empty()) << "Start called twice";
  workers_.resize(options_.num_workers);
  // Fork every worker before anything in this process spawns a thread (the
  // export server comes after): the children must be single-threaded, both
  // for fork-safety and for TSan's multi-threaded-fork restriction.
  for (size_t w = 0; w < options_.num_workers; ++w) {
    int fds[2];
    std::string pair_error;
    if (!net::UnixStreamPair(fds, &pair_error)) return fail(pair_error);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return fail("fork failed");
    }
    if (pid == 0) {
      // Child: drop every inherited controller-side fd, run the event
      // loop, and never return into the controller's stack.
      ::close(fds[0]);
      for (size_t e = 0; e < w; ++e) ::close(workers_[e].fd);
      ::_exit(WorkerMain(fds[1], w));
    }
    ::close(fds[1]);
    workers_[w].index = w;
    workers_[w].pid = pid;
    workers_[w].fd = fds[0];
    workers_[w].alive = true;
  }
  running_ = true;
  // Handshake: Hello (protocol version check), then Config / ConfigAck.
  const net::Deadline deadline = net::Deadline::In(options_.io_timeout_ms);
  for (WorkerHandle& worker : workers_) {
    uint64_t type = 0;
    std::string recv_error;
    if (!net::RecvFrame(worker.fd, &type, &recv_scratch_, deadline,
                        &recv_error)) {
      return fail("worker " + std::to_string(worker.index) +
                  " hello: " + (recv_error.empty() ? "closed" : recv_error));
    }
    if (type != kMsgHello) return fail("handshake: expected Hello");
    snapshot::Reader reader(recv_scratch_);
    const HelloInfo hello = Get<HelloInfo>(reader);
    if (hello.protocol_version != kProtocolVersion) {
      return fail("worker " + std::to_string(worker.index) +
                  " speaks protocol " +
                  std::to_string(hello.protocol_version) +
                  ", controller speaks " + std::to_string(kProtocolVersion));
    }
  }
  send_scratch_.Clear();
  Put(send_scratch_, options_.worker);
  for (WorkerHandle& worker : workers_) {
    SendTo(worker, kMsgConfig);
    worker.metrics_port =
        Receive<HelloInfo>(worker, kMsgConfigAck).metrics_port;
  }
  if (options_.serve_metrics && obs::kEnabled) {
    obs::Scope* scope = options_.scope;
    if (scope == nullptr) {
      own_scope_ = std::make_unique<obs::Scope>();
      scope = own_scope_.get();
    }
    obs::ExportServer::Options server;
    server.port = options_.metrics_port;
    server.scope = scope;
    exporter_ = std::make_unique<obs::ExportServer>(std::move(server));
    if (slo_ != nullptr) {
      SloTracker* tracker = slo_.get();
      exporter_->AddMetricsSection(
          [tracker] { return tracker->RenderPrometheus(); });
      exporter_->Handle("/tenants", "application/json",
                        [tracker] { return tracker->TenantsJson(); });
    }
    exporter_->Handle("/workers", "application/json", [this] {
      std::lock_guard<std::mutex> lock(publish_mutex_);
      std::string json = "[";
      for (size_t w = 0; w < published_workers_.size(); ++w) {
        const WorkerHandle& worker = published_workers_[w];
        if (w > 0) json += ",";
        json += "{\"worker\":" + std::to_string(worker.index) +
                ",\"pid\":" + std::to_string(worker.pid) +
                ",\"alive\":" + (worker.alive ? "true" : "false") +
                ",\"live\":" + std::to_string(worker.live) +
                ",\"waiting\":" + std::to_string(worker.waiting) +
                ",\"outstanding\":" + std::to_string(worker.outstanding) +
                ",\"tick_wall_ns\":" + std::to_string(worker.tick_wall_ns) +
                ",\"metrics_port\":" + std::to_string(worker.metrics_port) +
                "}";
      }
      return json + "]\n";
    });
    std::string server_error;
    if (!exporter_->Start(&server_error)) {
      return fail("controller metrics server: " + server_error);
    }
  }
  PublishWorkers();
  return true;
}

void DistController::SendTo(WorkerHandle& worker, uint64_t type) {
  RRS_CHECK(worker.alive);
  RRS_CHECK(net::SendFrame(worker.fd, type, send_scratch_.words()))
      << "send " << MsgTypeName(type) << " to worker " << worker.index
      << " failed";
}

void DistController::Expect(WorkerHandle& worker, uint64_t want) {
  uint64_t type = 0;
  std::string error;
  RRS_CHECK(net::RecvFrame(worker.fd, &type, &recv_scratch_,
                           net::Deadline::In(options_.io_timeout_ms), &error))
      << "worker " << worker.index << ": "
      << (error.empty() ? "closed connection" : error) << " while waiting for "
      << MsgTypeName(want);
  RRS_CHECK_EQ(type, want)
      << "worker " << worker.index << ": expected " << MsgTypeName(want)
      << ", got " << MsgTypeName(type);
}

template <class T>
T DistController::Receive(WorkerHandle& worker, uint64_t want) {
  Expect(worker, want);
  snapshot::Reader reader(recv_scratch_);
  T body = Get<T>(reader);
  RRS_CHECK(reader.AtEnd()) << "worker " << worker.index
                            << ": trailing words after " << MsgTypeName(want);
  return body;
}

void DistController::AddJobs(std::span<const FleetJob> jobs) {
  RRS_CHECK(running_) << "AddJobs before Start";
  RRS_CHECK_EQ(tick_, 0u) << "AddJobs after Run";
  // Dedup instances and generator specs by pointer and ship the new ones to
  // *every* worker: a migration target must already hold the instance (or
  // spec) when the checkpoint words arrive.
  InstanceTable new_instances;
  new_instances.first_id = next_instance_id_;
  SourceTable new_sources;
  new_sources.first_id = next_source_id_;
  const size_t first_tenant = tenants_.size();
  tenants_.reserve(tenants_.size() + jobs.size());
  for (const FleetJob& job : jobs) {
    RRS_CHECK(job.kind == FleetJob::Kind::kReplay)
        << "dist fleet runs replay tenants only";
    RRS_CHECK(!job.options.record_schedule)
        << "recorded schedules cannot be snapshotted or shipped";
    RRS_CHECK(job.options.obs_scope == nullptr)
        << "per-job obs scopes are process-local";
    Tenant tenant;
    tenant.spec.tenant = tenants_.size();
    tenant.spec.options = WireOptions::From(job.options);
    if (job.instance != nullptr) {
      uint32_t id = 0;
      const auto it = std::find_if(
          instance_ids_.begin(), instance_ids_.end(),
          [&](const auto& entry) { return entry.first == job.instance; });
      if (it != instance_ids_.end()) {
        id = it->second;
      } else {
        id = next_instance_id_++;
        instance_ids_.emplace_back(job.instance, id);
        new_instances.instances.push_back(WireInstance::From(*job.instance));
      }
      tenant.spec.instance_id = id;
      tenant.instance = job.instance;
    } else {
      // Streaming tenant: only a GeneratorSpec travels (a make_source
      // closure cannot ship to a worker process).
      RRS_CHECK(job.source_spec != nullptr)
          << "dist streaming tenants need a GeneratorSpec";
      uint32_t id = 0;
      const auto it = std::find_if(
          source_ids_.begin(), source_ids_.end(),
          [&](const auto& entry) { return entry.first == job.source_spec; });
      if (it != source_ids_.end()) {
        id = it->second;
      } else {
        id = next_source_id_++;
        source_ids_.emplace_back(job.source_spec, id);
        source_shapes_.push_back(workload::MakeSource(*job.source_spec));
        new_sources.specs.push_back(*job.source_spec);
      }
      tenant.spec.source_id = id;
      tenant.instance = &source_shapes_[id]->shape();
    }
    tenants_.push_back(std::move(tenant));
    ++remaining_;
  }
  if (!new_instances.instances.empty()) {
    send_scratch_.Clear();
    Put(send_scratch_, new_instances);
    for (WorkerHandle& worker : workers_) {
      if (!worker.alive) continue;
      SendTo(worker, kMsgAddInstances);
      Expect(worker, kMsgConfigAck);
    }
  }
  if (!new_sources.specs.empty()) {
    send_scratch_.Clear();
    Put(send_scratch_, new_sources);
    for (WorkerHandle& worker : workers_) {
      if (!worker.alive) continue;
      SendTo(worker, kMsgAddSources);
      Expect(worker, kMsgConfigAck);
    }
  }
  // Deterministic load-aware placement: each tenant goes to the alive
  // worker with the fewest outstanding tenants (ties to the lowest index).
  std::vector<std::vector<TenantSpec>> batches(workers_.size());
  for (size_t t = first_tenant; t < tenants_.size(); ++t) {
    const size_t target = LeastOutstandingAlive(workers_.size());
    tenants_[t].worker = target;
    ++workers_[target].outstanding;
    batches[target].push_back(tenants_[t].spec);
  }
  for (size_t w = 0; w < workers_.size(); ++w) {
    if (batches[w].empty()) continue;
    send_scratch_.Clear();
    Put(send_scratch_, batches[w]);
    SendTo(workers_[w], kMsgAddTenants);
    Expect(workers_[w], kMsgConfigAck);
  }
  if (slo_ != nullptr) slo_->Bind(tenants_.size(), 1);
}

size_t DistController::LeastOutstandingAlive(size_t exclude) const {
  size_t best = workers_.size();
  for (size_t w = 0; w < workers_.size(); ++w) {
    if (!workers_[w].alive || w == exclude) continue;
    if (best == workers_.size() ||
        workers_[w].outstanding < workers_[best].outstanding) {
      best = w;
    }
  }
  RRS_CHECK_LT(best, workers_.size()) << "no alive worker to place on";
  return best;
}

void DistController::ScheduleMigration(uint64_t tick, uint64_t tenant,
                                       size_t target) {
  migrations_.push_back({tick, tenant});
  migration_targets_.push_back(target);
}

void DistController::ScheduleKill(uint64_t tick, size_t worker) {
  kills_.push_back({tick, worker});
}

void DistController::ScheduleShed(uint64_t tick, uint64_t tenant) {
  sheds_.push_back({tick, tenant});
}

void DistController::ObserveSlo(Tenant& tenant, uint64_t rounds,
                                uint64_t misses) {
  // High-water guard: a failover-rewound tenant re-reports rounds the
  // tracker has already counted; observing them again would double-count
  // (and wrap the tracker's unsigned deltas).
  if (slo_ == nullptr || rounds <= tenant.slo_hw) return;
  slo_->Observe(0, tenant.spec.tenant, rounds, misses);
  tenant.slo_hw = rounds;
}

void DistController::ProcessTickReport(WorkerHandle& worker,
                                       std::vector<RunResult>& results) {
  TickReport report = Receive<TickReport>(worker, kMsgTickDone);
  RRS_CHECK_EQ(report.tick, tick_);
  stats_.rounds_stepped += report.rounds_stepped;
  worker.live = report.live;
  worker.waiting = report.waiting;
  worker.tick_wall_ns = report.tick_wall_ns;
  // Progress rows fold before completions: a tenant finishing this tick has
  // its last per-round trace rows in this same report, and the digest's
  // completion epilogue must come after them.
  for (const TenantProgress& row : report.slo) {
    ObserveSlo(tenants_[row.tenant], row.rounds, row.misses);
  }
  if (options_.trace_digests) {
    for (const TraceRow& row : report.trace) {
      Tenant& tenant = tenants_[row.tenant];
      if (row.round <= tenant.trace_hw) continue;  // failover replay
      tenant.digest.UpdateU64(row.round);
      tenant.digest.UpdateU64(row.reconfigurations);
      tenant.digest.UpdateU64(row.drops);
      tenant.digest.UpdateU64(row.weighted_drops);
      tenant.digest.UpdateU64(row.executed);
      tenant.trace_hw = row.round;
    }
  }
  for (TenantResult& done : report.completed) {
    Tenant& tenant = tenants_[done.tenant];
    RRS_CHECK(tenant.phase == Phase::kAssigned)
        << "tenant " << done.tenant << " completed twice";
    tenant.phase = Phase::kDone;
    tenant.has_checkpoint = false;
    tenant.checkpoint.words.clear();
    results[done.tenant] = std::move(done.result);
    --remaining_;
    --worker.outstanding;
    ++stats_.completed;
    if (slo_ != nullptr) {
      const RunResult& result = results[done.tenant];
      slo_->Finish(0, done.tenant, *tenant.instance, result,
                   result.drops_per_color);
    }
    if (options_.trace_digests) {
      // Completion epilogue of the TraceDigest fold.
      const RunResult& result = results[done.tenant];
      tenant.digest.UpdateU64(result.arrived);
      tenant.digest.UpdateU64(result.executed);
      for (uint64_t d : result.drops_per_color) tenant.digest.UpdateU64(d);
      tenant.digest_hex = tenant.digest.FinishHex();
    }
  }
  for (TenantCheckpoint& checkpoint : report.checkpoints) {
    Tenant& tenant = tenants_[checkpoint.tenant];
    stats_.checkpoint_words += checkpoint.words.size();
    tenant.checkpoint = std::move(checkpoint);
    tenant.has_checkpoint = true;
  }
}

std::vector<RunResult> DistController::Run() {
  RRS_CHECK(running_) << "Run before Start";
  std::vector<RunResult> results(tenants_.size());
  obs::Scope* scope = options_.scope != nullptr ? options_.scope
                                                : own_scope_.get();
  const uint32_t checkpoint_interval =
      options_.worker.checkpoint_interval_ticks;
  while (remaining_ > 0) {
    RRS_CHECK_GT(alive_workers(), 0u) << "all workers dead with tenants left";
    ++tick_;
    TickCmd cmd;
    cmd.tick = tick_;
    cmd.checkpoint =
        checkpoint_interval > 0 && tick_ % checkpoint_interval == 0;
    // Broadcast first, then collect: workers step in parallel across
    // processes while the controller waits at the barrier.
    send_scratch_.Clear();
    Put(send_scratch_, cmd);
    for (WorkerHandle& worker : workers_) {
      if (worker.alive) SendTo(worker, kMsgTick);
    }
    uint64_t tick_rounds = stats_.rounds_stepped;
    for (WorkerHandle& worker : workers_) {
      if (worker.alive) ProcessTickReport(worker, results);
    }
    tick_rounds = stats_.rounds_stepped - tick_rounds;
    ++stats_.ticks;
    if (slo_ != nullptr) slo_->Publish(0);
    // Scripted faults land here, with every worker quiesced at the barrier.
    for (const ScheduledEvent& kill : kills_) {
      if (kill.tick == tick_ && workers_[kill.tenant].alive) {
        KillWorker(kill.tenant);
      }
    }
    for (size_t m = 0; m < migrations_.size(); ++m) {
      if (migrations_[m].tick == tick_) {
        MigrateTenant(migrations_[m].tenant, migration_targets_[m]);
      }
    }
    for (const ScheduledEvent& shed : sheds_) {
      if (shed.tick == tick_) ShedTenant(shed.tenant);
    }
    if (options_.shed_burn_threshold > 0 && slo_ != nullptr) {
      const SloTracker::Snapshot snap = slo_->SnapshotShard(0);
      for (const SloTracker::TenantBurn& burn : snap.top) {
        if (burn.burn > options_.shed_burn_threshold) {
          ShedTenant(burn.tenant);
        }
      }
    }
    if (scope != nullptr && obs::kEnabled) {
      const std::pair<std::string_view, uint64_t> counters[] = {
          {"dist.ticks", 1},
          {"dist.rounds_stepped", tick_rounds},
      };
      scope->AbsorbCounters(counters);
      scope->AbsorbGauge("dist.remaining", static_cast<double>(remaining_));
    }
    PublishWorkers();
  }
  if (scope != nullptr && obs::kEnabled) {
    const std::pair<std::string_view, uint64_t> counters[] = {
        {"dist.completed", stats_.completed},
        {"dist.migrations", stats_.migrations},
        {"dist.kills", stats_.kills},
        {"dist.failover_restores", stats_.restored_from_checkpoint},
        {"dist.failover_restarts", stats_.restarted_from_scratch},
        {"dist.shed", stats_.shed},
        {"dist.checkpoint_words", stats_.checkpoint_words},
    };
    scope->AbsorbCounters(counters);
  }
  return results;
}

void DistController::PlaceTenant(Tenant& tenant, size_t target,
                                 const TenantCheckpoint* checkpoint) {
  WorkerHandle& worker = workers_[target];
  send_scratch_.Clear();
  if (checkpoint != nullptr) {
    Put(send_scratch_, RestoreTenant{tenant.spec, *checkpoint});
    SendTo(worker, kMsgRestoreTenant);
    Expect(worker, kMsgRestoreAck);
  } else {
    Put(send_scratch_, std::vector<TenantSpec>{tenant.spec});
    SendTo(worker, kMsgAddTenants);
    Expect(worker, kMsgConfigAck);
  }
  tenant.worker = target;
  ++worker.outstanding;
}

TenantEvicted DistController::Evict(Tenant& tenant, bool checkpoint) {
  WorkerHandle& worker = workers_[tenant.worker];
  RRS_CHECK(worker.alive);
  send_scratch_.Clear();
  Put(send_scratch_, EvictTenant{tenant.spec.tenant, checkpoint});
  SendTo(worker, kMsgEvictTenant);
  TenantEvicted evicted = Receive<TenantEvicted>(worker, kMsgTenantEvicted);
  RRS_CHECK(evicted.state != kTenantMissing)
      << "tenant " << tenant.spec.tenant << " not on worker " << worker.index;
  RRS_CHECK_EQ(evicted.checkpoint.tenant, tenant.spec.tenant);
  --worker.outstanding;
  return evicted;
}

bool DistController::MigrateTenant(uint64_t tenant_id, size_t target) {
  RRS_CHECK_LT(target, workers_.size());
  Tenant& tenant = tenants_[tenant_id];
  if (tenant.phase != Phase::kAssigned) return false;  // finished first
  if (!workers_[target].alive) return false;
  // target == tenant.worker is allowed: the full quiesce → evict → restore
  // cycle runs against one worker, which is exactly what the 1-worker
  // migration differentials exercise. A tenant not yet admitted on its
  // worker has nothing to restore: its spec moves.
  const TenantEvicted evicted = Evict(tenant, /*checkpoint=*/true);
  PlaceTenant(tenant, target,
              evicted.state == kTenantLive ? &evicted.checkpoint : nullptr);
  ++stats_.migrations;
  return true;
}

void DistController::KillWorker(size_t index) {
  RRS_CHECK_LT(index, workers_.size());
  WorkerHandle& victim = workers_[index];
  RRS_CHECK(victim.alive);
  RRS_CHECK_GT(alive_workers(), 1u) << "cannot kill the last worker";
  ::kill(static_cast<pid_t>(victim.pid), SIGKILL);
  ::waitpid(static_cast<pid_t>(victim.pid), nullptr, 0);
  ::close(victim.fd);
  victim.fd = -1;
  victim.alive = false;
  victim.live = 0;
  victim.waiting = 0;
  victim.outstanding = 0;
  ++stats_.kills;
  // Failover: every unfinished tenant of the victim restores from its
  // latest streamed checkpoint on the least-loaded survivor — or restarts
  // from scratch if it was never checkpointed. Deterministic re-execution
  // makes either path bit-identical to an undisturbed run.
  for (Tenant& tenant : tenants_) {
    if (tenant.phase != Phase::kAssigned || tenant.worker != index) continue;
    PlaceTenant(tenant, LeastOutstandingAlive(workers_.size()),
                tenant.has_checkpoint ? &tenant.checkpoint : nullptr);
    ++(tenant.has_checkpoint ? stats_.restored_from_checkpoint
                             : stats_.restarted_from_scratch);
  }
}

bool DistController::ShedTenant(uint64_t tenant_id) {
  Tenant& tenant = tenants_[tenant_id];
  if (tenant.phase != Phase::kAssigned) return false;
  const TenantEvicted evicted = Evict(tenant, /*checkpoint=*/false);
  if (slo_ != nullptr) {
    // Observe up to the cut, then retire the tenant: /tenants, the gauges
    // and the burn valve must stop counting a tenant that no longer runs.
    ObserveSlo(tenant, evicted.checkpoint.round, evicted.misses);
    slo_->Retire(0, tenant_id);
    slo_->Publish(0);
  }
  tenant.phase = Phase::kShed;
  tenant.has_checkpoint = false;
  tenant.checkpoint.words.clear();
  --remaining_;
  ++stats_.shed;
  return true;
}

void DistController::Shutdown() {
  if (workers_.empty()) return;
  for (WorkerHandle& worker : workers_) {
    if (!worker.alive) continue;
    send_scratch_.Clear();
    // Best-effort: wait for the header-only Bye; a crashed worker just
    // fails the send or the read.
    if (net::SendFrame(worker.fd, kMsgShutdown, send_scratch_.words())) {
      uint64_t type = 0;
      (void)net::RecvFrame(worker.fd, &type, &recv_scratch_,
                           net::Deadline::In(options_.io_timeout_ms));
    }
    ::close(worker.fd);
    worker.fd = -1;
    ::waitpid(static_cast<pid_t>(worker.pid), nullptr, 0);
    worker.alive = false;
  }
  if (exporter_ != nullptr) exporter_->Stop();
  running_ = false;
}

size_t DistController::alive_workers() const {
  size_t alive = 0;
  for (const WorkerHandle& worker : workers_) {
    if (worker.alive) ++alive;
  }
  return alive;
}

std::string DistController::trace_digest(uint64_t tenant) const {
  RRS_CHECK_LT(tenant, tenants_.size());
  return tenants_[tenant].digest_hex;
}

bool DistController::tenant_shed(uint64_t tenant) const {
  RRS_CHECK_LT(tenant, tenants_.size());
  return tenants_[tenant].phase == Phase::kShed;
}

uint16_t DistController::metrics_port() const {
  return exporter_ != nullptr ? exporter_->port() : 0;
}

std::vector<uint64_t> DistController::worker_metrics_ports() const {
  std::vector<uint64_t> ports;
  ports.reserve(workers_.size());
  for (const WorkerHandle& worker : workers_) {
    ports.push_back(worker.alive ? worker.metrics_port : 0);
  }
  return ports;
}

void DistController::PublishWorkers() {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  published_workers_ = workers_;
}

}  // namespace dist
}  // namespace fleet
}  // namespace rrs
