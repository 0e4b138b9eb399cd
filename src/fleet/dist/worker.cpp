#include "fleet/dist/worker.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/instance.h"
#include "fleet/dist/protocol.h"
#include "fleet/tick_core.h"
#include "net/socket.h"
#include "obs/export_server.h"
#include "obs/level.h"
#include "obs/scope.h"
#include "sched/registry.h"
#include "util/check.h"
#include "workload/generator_spec.h"

namespace rrs {
namespace fleet {
namespace dist {

namespace {

uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The wire report's side of a tick: completions, per-tenant SLO progress
// and per-round trace rows, as the config asks for them.
class ReportSink final : public TickSink {
 public:
  ReportSink(const WireConfig& config, TickReport& report)
      : config_(config), report_(report) {}

  RunResult& Completion(uint64_t tenant) override {
    report_.completed.emplace_back();
    report_.completed.back().tenant = tenant;
    return report_.completed.back().result;
  }

  void Progress(uint64_t tenant, uint64_t rounds,
                const CostBreakdown& cost) override {
    if (config_.report_slo) report_.slo.push_back({tenant, rounds, cost.drops});
  }

  // Single-round rows: the exact fold the golden-trace digests hash,
  // resumable across migrations because every row carries its round.
  void Round(uint64_t tenant, uint64_t round, const CostBreakdown& cost,
             uint64_t executed) override {
    report_.trace.push_back({tenant, round, cost.reconfigurations, cost.drops,
                             cost.weighted_drops, executed});
  }

 private:
  const WireConfig& config_;
  TickReport& report_;
};

class Worker {
 public:
  Worker(int fd, uint64_t index) : fd_(fd), index_(index) {}

  int Run() {
    if (!SendHello()) return 1;
    std::vector<uint64_t> payload;
    for (;;) {
      uint64_t type = 0;
      std::string error;
      if (!net::RecvFrame(fd_, &type, &payload, net::Deadline::Infinite(),
                          &error)) {
        // Clean EOF (empty error) = controller went away without Shutdown —
        // e.g. a controller crash. Exit quietly; anything else is a wire
        // fault worth a nonzero exit.
        return error.empty() ? 0 : 1;
      }
      snapshot::Reader reader(payload);
      switch (type) {
        case kMsgConfig:
          HandleConfig(reader);
          break;
        case kMsgAddInstances:
          HandleAddInstances(reader);
          break;
        case kMsgAddTenants:
          HandleAddTenants(reader);
          break;
        case kMsgAddSources:
          HandleAddSources(reader);
          break;
        case kMsgTick:
          HandleTick(reader);
          break;
        case kMsgEvictTenant:
          HandleEvictTenant(reader);
          break;
        case kMsgRestoreTenant:
          HandleRestoreTenant(reader);
          break;
        case kMsgShutdown:
          reply_.Clear();
          Send(kMsgBye);
          return 0;
        default:
          RRS_CHECK(false) << "worker " << index_ << ": unexpected frame "
                           << MsgTypeName(type) << " (" << type << ")";
      }
      RRS_CHECK(reader.AtEnd())
          << "worker " << index_ << ": trailing words after "
          << MsgTypeName(type);
    }
  }

 private:
  bool SendHello() {
    HelloInfo hello;
    hello.worker_index = index_;
    hello.pid = static_cast<uint64_t>(::getpid());
    hello.protocol_version = kProtocolVersion;
    reply_.Clear();
    Put(reply_, hello);
    return net::SendFrame(fd_, kMsgHello, reply_.words());
  }

  void Send(uint64_t type) {
    RRS_CHECK(net::SendFrame(fd_, type, reply_.words()))
        << "worker " << index_ << ": send " << MsgTypeName(type) << " failed";
  }

  void HandleConfig(snapshot::Reader& reader) {
    RRS_CHECK(core_ == nullptr) << "duplicate Config";
    config_ = Get<WireConfig>(reader);
    TickCoreOptions core;
    const std::string policy =
        config_.policy.empty() ? std::string("dlru-edf") : config_.policy;
    // Every session gets its own policy instance from the registry; a
    // restored tenant resumes on a fresh one (RestoreRun reloads its state).
    core.policy_factory = [policy] {
      std::unique_ptr<SchedulerPolicy> made = MakePolicy(policy);
      RRS_CHECK(made != nullptr) << "unknown policy in worker config: "
                                 << policy;
      return made;
    };
    core.rounds_per_tick = config_.rounds_per_tick;
    core.trace_rounds = config_.report_trace;
    core_ = std::make_unique<TickCore>(std::move(core));
    uint64_t metrics_port = 0;
    if (config_.serve_metrics && obs::kEnabled) {
      scope_ = std::make_unique<obs::Scope>();
      obs::ExportServer::Options server;
      server.scope = scope_.get();
      server.prefix = "rrs_worker";
      exporter_ = std::make_unique<obs::ExportServer>(std::move(server));
      std::string error;
      RRS_CHECK(exporter_->Start(&error))
          << "worker " << index_ << " metrics server: " << error;
      metrics_port = exporter_->port();
    }
    HelloInfo ack;
    ack.worker_index = index_;
    ack.pid = static_cast<uint64_t>(::getpid());
    ack.metrics_port = metrics_port;
    reply_.Clear();
    Put(reply_, ack);
    Send(kMsgConfigAck);
  }

  void HandleAddInstances(snapshot::Reader& reader) {
    const InstanceTable table = Get<InstanceTable>(reader);
    for (size_t i = 0; i < table.instances.size(); ++i) {
      // std::map nodes are address-stable: engines keep Instance pointers
      // across rebinds, so the table must never relocate.
      const uint32_t id = table.first_id + static_cast<uint32_t>(i);
      RRS_CHECK(instances_.emplace(id, table.instances[i].Build()).second)
          << "duplicate instance id " << id;
    }
    reply_.Clear();
    Send(kMsgConfigAck);
  }

  void HandleAddTenants(snapshot::Reader& reader) {
    const std::vector<TenantSpec> specs = Get<std::vector<TenantSpec>>(reader);
    waiting_.insert(waiting_.end(), specs.begin(), specs.end());
    reply_.Clear();
    Send(kMsgConfigAck);
  }

  void HandleAddSources(snapshot::Reader& reader) {
    SourceTable table = Get<SourceTable>(reader);
    for (size_t i = 0; i < table.specs.size(); ++i) {
      const uint32_t id = table.first_id + static_cast<uint32_t>(i);
      RRS_CHECK(sources_.emplace(id, std::move(table.specs[i])).second)
          << "duplicate source id " << id;
    }
    reply_.Clear();
    Send(kMsgConfigAck);
  }

  // The tenant as a FleetJob for the core: instance-fed from the shipped
  // instance table, or streaming from the shipped spec table. The spec is
  // deterministic, so every instantiation — admission here, restore on a
  // migration target — yields the same stream.
  FleetJob JobOf(const TenantSpec& spec) const {
    FleetJob job;
    job.options = spec.options.ToEngineOptions();
    if (spec.source_id != kNoSourceId) {
      const auto it = sources_.find(spec.source_id);
      RRS_CHECK(it != sources_.end())
          << "tenant " << spec.tenant << " references unknown source "
          << spec.source_id;
      job.source_spec = &it->second;
    } else {
      const auto it = instances_.find(spec.instance_id);
      RRS_CHECK(it != instances_.end())
          << "tenant " << spec.tenant << " references unknown instance "
          << spec.instance_id;
      job.instance = &it->second;
    }
    return job;
  }

  void HandleTick(snapshot::Reader& reader) {
    RRS_CHECK(core_ != nullptr) << "Tick before Config";
    const TickCmd cmd = Get<TickCmd>(reader);
    TickCore& core = *core_;

    // ---- Admit waiting tenants, in admission order, up to the live cap.
    size_t admitted = 0;
    while (admitted < waiting_.size() &&
           (config_.max_live_sessions == 0 ||
            core.live() < config_.max_live_sessions)) {
      const TenantSpec& spec = waiting_[admitted++];
      core.Admit(spec.tenant, JobOf(spec));
    }
    waiting_.erase(waiting_.begin(),
                   waiting_.begin() + static_cast<ptrdiff_t>(admitted));

    // ---- Step every live tenant one round bucket. ----
    TickReport report;
    report.tick = cmd.tick;
    ReportSink sink(config_, report);
    const uint64_t rounds_before = core.stats().rounds_stepped;
    const uint64_t step_start = WallNs();
    core.Step(sink);
    report.tick_wall_ns = WallNs() - step_start;
    report.rounds_stepped = core.stats().rounds_stepped - rounds_before;
    report.live = core.live();
    report.waiting = waiting_.size();
    if (!config_.collect_results) {
      // Completion signal only: keep the scalars (cheap, and enough for the
      // controller's accounting), drop the per-color vectors and counter
      // map that dominate the wire at 1M tenants.
      for (TenantResult& done : report.completed) {
        done.result.drops_per_color.clear();
        done.result.telemetry = obs::Telemetry();
      }
    }
    if (cmd.checkpoint) {
      for (size_t i = 0; i < core.sessions(); ++i) {
        core.Checkpoint(i, snapshot_scratch_);
        const uint64_t round =
            static_cast<uint64_t>(core.engine(i).next_round());
        report.checkpoints.push_back(
            {core.tenant(i), round, snapshot_scratch_.words()});
      }
    }

    // ---- Barrier: rows sorted by tenant, so the controller's view does
    // not depend on admission or restore order. ----
    auto by_tenant = [](const auto& a, const auto& b) {
      return a.tenant < b.tenant;
    };
    std::sort(report.completed.begin(), report.completed.end(), by_tenant);
    std::sort(report.slo.begin(), report.slo.end(), by_tenant);
    // Trace rows: per-tenant round order is already ascending; stable sort
    // keeps it while grouping tenants.
    std::stable_sort(report.trace.begin(), report.trace.end(), by_tenant);
    std::sort(report.checkpoints.begin(), report.checkpoints.end(),
              by_tenant);

    if (scope_ != nullptr) {
      const std::pair<std::string_view, uint64_t> counters[] = {
          {"dist.worker.ticks", 1},
          {"dist.worker.rounds_stepped", report.rounds_stepped},
          {"dist.worker.completed", report.completed.size()},
          {"dist.worker.checkpoints", report.checkpoints.size()},
      };
      scope_->AbsorbCounters(counters);
      scope_->AbsorbGauge("dist.worker.live",
                          static_cast<double>(report.live));
      scope_->AbsorbGauge("dist.worker.waiting",
                          static_cast<double>(report.waiting));
    }

    reply_.Clear();
    Put(reply_, report);
    Send(kMsgTickDone);
  }

  // Drops a not-yet-admitted tenant from the waiting queue; returns whether
  // it was there.
  bool DropWaiting(uint64_t tenant) {
    const auto it = std::find_if(
        waiting_.begin(), waiting_.end(),
        [tenant](const TenantSpec& spec) { return spec.tenant == tenant; });
    if (it == waiting_.end()) return false;
    waiting_.erase(it);
    return true;
  }

  // Takes a tenant off this worker, for migration (with its checkpoint
  // words) or shedding (without), and reports its progress at the cut.
  void HandleEvictTenant(snapshot::Reader& reader) {
    const EvictTenant request = Get<EvictTenant>(reader);
    TenantEvicted out;
    out.checkpoint.tenant = request.tenant;
    const std::optional<size_t> live =
        core_ != nullptr ? core_->Find(request.tenant) : std::nullopt;
    if (live.has_value()) {
      const Engine& engine = core_->engine(*live);
      out.state = kTenantLive;
      out.checkpoint.round = static_cast<uint64_t>(engine.next_round());
      out.misses = engine.run_cost().drops;
      core_->Evict(*live, request.checkpoint ? &snapshot_scratch_ : nullptr);
      if (request.checkpoint) out.checkpoint.words = snapshot_scratch_.words();
    } else if (DropWaiting(request.tenant)) {
      out.state = kTenantWaiting;
    }
    reply_.Clear();
    Put(reply_, out);
    Send(kMsgTenantEvicted);
  }

  void HandleRestoreTenant(snapshot::Reader& reader) {
    RRS_CHECK(core_ != nullptr) << "Restore before Config";
    const RestoreTenant restore = Get<RestoreTenant>(reader);
    RRS_CHECK_EQ(restore.spec.tenant, restore.checkpoint.tenant);
    // Restores are exempt from the live cap (TickCore::Restore).
    core_->Restore(restore.spec.tenant, JobOf(restore.spec),
                   restore.checkpoint.words);
    reply_.Clear();
    Send(kMsgRestoreAck);
  }

  const int fd_;
  const uint64_t index_;
  WireConfig config_;
  std::map<uint32_t, Instance> instances_;
  std::map<uint32_t, workload::GeneratorSpec> sources_;
  std::unique_ptr<TickCore> core_;   // built by Config
  std::vector<TenantSpec> waiting_;  // admission order
  std::unique_ptr<obs::Scope> scope_;
  std::unique_ptr<obs::ExportServer> exporter_;
  snapshot::Writer reply_;
  snapshot::Writer snapshot_scratch_;
};

}  // namespace

int WorkerMain(int fd, uint64_t worker_index) {
  Worker worker(fd, worker_index);
  return worker.Run();
}

}  // namespace dist
}  // namespace fleet
}  // namespace rrs
