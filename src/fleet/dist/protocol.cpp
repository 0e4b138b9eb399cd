#include "fleet/dist/protocol.h"

#include <bit>
#include <cstring>

#include "util/check.h"

namespace rrs {
namespace fleet {
namespace dist {

const char* MsgTypeName(uint64_t type) {
  switch (type) {
    case kMsgHello: return "Hello";
    case kMsgConfig: return "Config";
    case kMsgConfigAck: return "ConfigAck";
    case kMsgAddInstances: return "AddInstances";
    case kMsgAddTenants: return "AddTenants";
    case kMsgTick: return "Tick";
    case kMsgTickDone: return "TickDone";
    case kMsgSnapshotTenant: return "SnapshotTenant";
    case kMsgTenantSnapshot: return "TenantSnapshot";
    case kMsgRestoreTenant: return "RestoreTenant";
    case kMsgRestoreAck: return "RestoreAck";
    case kMsgShedTenant: return "ShedTenant";
    case kMsgShedAck: return "ShedAck";
    case kMsgShutdown: return "Shutdown";
    case kMsgBye: return "Bye";
    case kMsgAddSources: return "AddSources";
    default: return "<unknown>";
  }
}

EngineOptions WireOptions::ToEngineOptions() const {
  EngineOptions options;
  options.num_resources = num_resources;
  options.mini_rounds_per_round = static_cast<int>(mini_rounds_per_round);
  options.cost_model.delta = delta;
  return options;
}

WireOptions WireOptions::From(const EngineOptions& options) {
  WireOptions wire;
  wire.num_resources = options.num_resources;
  wire.mini_rounds_per_round = options.mini_rounds_per_round;
  wire.delta = options.cost_model.delta;
  return wire;
}

// Strings are packed 8 bytes per word (length word first); counter names and
// policy names are short, and this keeps everything in the codec's word
// stream without a parallel byte channel.
void PutString(snapshot::Writer& w, const std::string& s) {
  w.PutU64(s.size());
  for (size_t i = 0; i < s.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, s.data() + i, std::min<size_t>(8, s.size() - i));
    w.PutU64(word);
  }
}

std::string GetString(snapshot::Reader& r) {
  const uint64_t len = r.GetU64();
  RRS_CHECK_LE(len, 1u << 20) << "wire string implausibly long";
  std::string s(len, '\0');
  for (size_t i = 0; i < len; i += 8) {
    const uint64_t word = r.GetU64();
    std::memcpy(s.data() + i, &word, std::min<size_t>(8, len - i));
  }
  return s;
}

namespace {

void PutWireOptions(snapshot::Writer& w, const WireOptions& options) {
  w.PutU32(options.num_resources);
  w.PutI64(options.mini_rounds_per_round);
  w.PutU64(options.delta);
}

WireOptions GetWireOptions(snapshot::Reader& r) {
  WireOptions options;
  options.num_resources = r.GetU32();
  options.mini_rounds_per_round = r.GetI64();
  options.delta = r.GetU64();
  return options;
}

}  // namespace

void PutHello(snapshot::Writer& w, const HelloInfo& hello) {
  w.BeginSection(snapshot::kTagDistMsg);
  w.PutU64(hello.worker_index);
  w.PutU64(hello.pid);
  w.PutU64(hello.protocol_version);
  w.PutU64(hello.metrics_port);
  w.EndSection();
}

HelloInfo GetHello(snapshot::Reader& r) {
  HelloInfo hello;
  r.BeginSection(snapshot::kTagDistMsg);
  hello.worker_index = r.GetU64();
  hello.pid = r.GetU64();
  hello.protocol_version = r.GetU64();
  hello.metrics_port = r.GetU64();
  r.EndSection();
  return hello;
}

void PutConfig(snapshot::Writer& w, const WireConfig& config) {
  w.BeginSection(snapshot::kTagDistMsg);
  w.PutI64(config.rounds_per_tick);
  w.PutU64(config.max_live_sessions);
  w.PutBool(config.collect_results);
  w.PutBool(config.report_slo);
  w.PutBool(config.report_trace);
  w.PutU32(config.checkpoint_interval_ticks);
  w.PutBool(config.serve_metrics);
  PutString(w, config.policy);
  w.EndSection();
}

WireConfig GetConfig(snapshot::Reader& r) {
  WireConfig config;
  r.BeginSection(snapshot::kTagDistMsg);
  config.rounds_per_tick = r.GetI64();
  config.max_live_sessions = r.GetU64();
  config.collect_results = r.GetBool();
  config.report_slo = r.GetBool();
  config.report_trace = r.GetBool();
  config.checkpoint_interval_ticks = r.GetU32();
  config.serve_metrics = r.GetBool();
  config.policy = GetString(r);
  r.EndSection();
  return config;
}

void PutInstanceTable(snapshot::Writer& w,
                      const std::vector<const Instance*>& instances,
                      uint32_t first_id) {
  w.BeginSection(snapshot::kTagDistMsg);
  w.PutU64(instances.size());
  w.EndSection();
  for (size_t i = 0; i < instances.size(); ++i) {
    const Instance& instance = *instances[i];
    w.BeginSection(snapshot::kTagDistInstance);
    w.PutU32(first_id + static_cast<uint32_t>(i));
    w.PutU64(instance.num_colors());
    for (ColorId c = 0; c < instance.num_colors(); ++c) {
      w.PutI64(instance.delay_bound(c));
      w.PutU64(instance.drop_cost(c));
      PutString(w, instance.color_name(c));
    }
    // Jobs, run-length encoded over identical (color, arrival) runs: bulk
    // workloads (AddJobs bursts) compress to one triple per burst.
    std::span<const Job> jobs = instance.jobs();
    uint64_t runs = 0;
    for (size_t j = 0; j < jobs.size();) {
      size_t k = j + 1;
      while (k < jobs.size() && jobs[k] == jobs[j]) ++k;
      ++runs;
      j = k;
    }
    w.PutU64(runs);
    for (size_t j = 0; j < jobs.size();) {
      size_t k = j + 1;
      while (k < jobs.size() && jobs[k] == jobs[j]) ++k;
      w.PutU32(jobs[j].color);
      w.PutI64(jobs[j].arrival);
      w.PutU64(k - j);
      j = k;
    }
    w.EndSection();
  }
}

void GetInstanceTable(snapshot::Reader& r,
                      std::vector<std::pair<uint32_t, Instance>>* out) {
  r.BeginSection(snapshot::kTagDistMsg);
  const uint64_t count = r.GetU64();
  r.EndSection();
  for (uint64_t i = 0; i < count; ++i) {
    r.BeginSection(snapshot::kTagDistInstance);
    const uint32_t id = r.GetU32();
    InstanceBuilder builder;
    const uint64_t colors = r.GetU64();
    for (uint64_t c = 0; c < colors; ++c) {
      const Round delay = r.GetI64();
      const uint64_t drop_cost = r.GetU64();
      builder.AddColor(delay, GetString(r), drop_cost);
    }
    const uint64_t runs = r.GetU64();
    for (uint64_t j = 0; j < runs; ++j) {
      const ColorId color = r.GetU32();
      const Round arrival = r.GetI64();
      const uint64_t n = r.GetU64();
      builder.AddJobs(color, arrival, n);
    }
    r.EndSection();
    out->emplace_back(id, builder.Build());
  }
}

void PutTenantSpecs(snapshot::Writer& w,
                    const std::vector<TenantSpec>& specs) {
  w.BeginSection(snapshot::kTagDistMsg);
  w.PutU64(specs.size());
  for (const TenantSpec& spec : specs) {
    w.PutU64(spec.tenant);
    w.PutU32(spec.instance_id);
    w.PutU32(spec.source_id);
    PutWireOptions(w, spec.options);
  }
  w.EndSection();
}

void GetTenantSpecs(snapshot::Reader& r, std::vector<TenantSpec>* out) {
  r.BeginSection(snapshot::kTagDistMsg);
  const uint64_t count = r.GetU64();
  out->reserve(out->size() + count);
  for (uint64_t i = 0; i < count; ++i) {
    TenantSpec spec;
    spec.tenant = r.GetU64();
    spec.instance_id = r.GetU32();
    spec.source_id = r.GetU32();
    spec.options = GetWireOptions(r);
    out->push_back(spec);
  }
  r.EndSection();
}

void PutSourceTable(snapshot::Writer& w,
                    const std::vector<const workload::GeneratorSpec*>& specs,
                    uint32_t first_id) {
  w.BeginSection(snapshot::kTagDistMsg);
  w.PutU64(specs.size());
  w.PutU32(first_id);
  w.EndSection();
  for (const workload::GeneratorSpec* spec : specs) {
    workload::PutGeneratorSpec(w, *spec);
  }
}

void GetSourceTable(
    snapshot::Reader& r,
    std::vector<std::pair<uint32_t, workload::GeneratorSpec>>* out) {
  r.BeginSection(snapshot::kTagDistMsg);
  const uint64_t count = r.GetU64();
  const uint32_t first_id = r.GetU32();
  r.EndSection();
  for (uint64_t i = 0; i < count; ++i) {
    out->emplace_back(first_id + static_cast<uint32_t>(i),
                      workload::GetGeneratorSpec(r));
  }
}

void PutCheckpoint(snapshot::Writer& w, const TenantCheckpoint& checkpoint) {
  w.BeginSection(snapshot::kTagDistCheckpoint);
  w.PutU64(checkpoint.tenant);
  w.PutU64(checkpoint.round);
  w.PutVec(checkpoint.words);
  w.EndSection();
}

void GetCheckpoint(snapshot::Reader& r, TenantCheckpoint* out) {
  r.BeginSection(snapshot::kTagDistCheckpoint);
  out->tenant = r.GetU64();
  out->round = r.GetU64();
  r.GetVec(out->words);
  r.EndSection();
}

void PutResult(snapshot::Writer& w, uint64_t tenant,
               const RunResult& result) {
  RRS_CHECK(!result.schedule.has_value())
      << "recorded schedules do not travel over the dist protocol";
  w.BeginSection(snapshot::kTagDistResult);
  w.PutU64(tenant);
  w.PutU64(result.cost.reconfigurations);
  w.PutU64(result.cost.drops);
  w.PutU64(result.cost.weighted_drops);
  w.PutU64(result.executed);
  w.PutU64(result.arrived);
  w.PutI64(result.rounds_simulated);
  w.PutVec(result.drops_per_color);
  // Telemetry: the deterministic fields only (phase wall times are
  // per-machine noise and excluded from oracle comparisons anyway).
  w.PutVec(result.telemetry.reconfigs_per_color);
  w.PutU64(result.telemetry.counters.size());
  for (const auto& [name, value] : result.telemetry.counters) {
    PutString(w, name);
    w.PutU64(std::bit_cast<uint64_t>(value));
  }
  w.EndSection();
}

void GetResult(snapshot::Reader& r, TenantResult* out) {
  r.BeginSection(snapshot::kTagDistResult);
  out->tenant = r.GetU64();
  RunResult& result = out->result;
  result = RunResult();
  result.cost.reconfigurations = r.GetU64();
  result.cost.drops = r.GetU64();
  result.cost.weighted_drops = r.GetU64();
  result.executed = r.GetU64();
  result.arrived = r.GetU64();
  result.rounds_simulated = r.GetI64();
  r.GetVec(result.drops_per_color);
  r.GetVec(result.telemetry.reconfigs_per_color);
  const uint64_t counters = r.GetU64();
  for (uint64_t i = 0; i < counters; ++i) {
    std::string name = GetString(r);
    result.telemetry.counters[std::move(name)] =
        std::bit_cast<double>(r.GetU64());
  }
  r.EndSection();
}

void PutTickReport(snapshot::Writer& w, const TickReport& report) {
  w.BeginSection(snapshot::kTagDistMsg);
  w.PutU64(report.tick);
  w.PutU64(report.rounds_stepped);
  w.PutU64(report.live);
  w.PutU64(report.waiting);
  w.PutU64(report.tick_wall_ns);
  w.PutU64(report.completed.size());
  w.PutU64(report.checkpoints.size());
  w.EndSection();
  for (const TenantResult& completed : report.completed) {
    PutResult(w, completed.tenant, completed.result);
  }
  w.BeginSection(snapshot::kTagDistSlo);
  w.PutU64(report.slo.size());
  for (const TenantProgress& row : report.slo) {
    w.PutU64(row.tenant);
    w.PutU64(row.rounds);
    w.PutU64(row.misses);
  }
  w.EndSection();
  w.BeginSection(snapshot::kTagDistTrace);
  w.PutU64(report.trace.size());
  for (const TraceRow& row : report.trace) {
    w.PutU64(row.tenant);
    w.PutU64(row.round);
    w.PutU64(row.reconfigurations);
    w.PutU64(row.drops);
    w.PutU64(row.weighted_drops);
    w.PutU64(row.executed);
  }
  w.EndSection();
  for (const TenantCheckpoint& checkpoint : report.checkpoints) {
    PutCheckpoint(w, checkpoint);
  }
}

void GetTickReport(snapshot::Reader& r, TickReport* out) {
  *out = TickReport();
  r.BeginSection(snapshot::kTagDistMsg);
  out->tick = r.GetU64();
  out->rounds_stepped = r.GetU64();
  out->live = r.GetU64();
  out->waiting = r.GetU64();
  out->tick_wall_ns = r.GetU64();
  const uint64_t completed = r.GetU64();
  const uint64_t checkpoints = r.GetU64();
  r.EndSection();
  out->completed.resize(completed);
  for (uint64_t i = 0; i < completed; ++i) GetResult(r, &out->completed[i]);
  r.BeginSection(snapshot::kTagDistSlo);
  const uint64_t slo_rows = r.GetU64();
  out->slo.resize(slo_rows);
  for (TenantProgress& row : out->slo) {
    row.tenant = r.GetU64();
    row.rounds = r.GetU64();
    row.misses = r.GetU64();
  }
  r.EndSection();
  r.BeginSection(snapshot::kTagDistTrace);
  const uint64_t trace_rows = r.GetU64();
  out->trace.resize(trace_rows);
  for (TraceRow& row : out->trace) {
    row.tenant = r.GetU64();
    row.round = r.GetU64();
    row.reconfigurations = r.GetU64();
    row.drops = r.GetU64();
    row.weighted_drops = r.GetU64();
    row.executed = r.GetU64();
  }
  r.EndSection();
  out->checkpoints.resize(checkpoints);
  for (TenantCheckpoint& checkpoint : out->checkpoints) {
    GetCheckpoint(r, &checkpoint);
  }
}

void PutTickCmd(snapshot::Writer& w, const TickCmd& cmd) {
  w.BeginSection(snapshot::kTagDistMsg);
  w.PutU64(cmd.tick);
  w.PutBool(cmd.checkpoint);
  w.EndSection();
}

TickCmd GetTickCmd(snapshot::Reader& r) {
  TickCmd cmd;
  r.BeginSection(snapshot::kTagDistMsg);
  cmd.tick = r.GetU64();
  cmd.checkpoint = r.GetBool();
  r.EndSection();
  return cmd;
}

void PutTenantId(snapshot::Writer& w, uint64_t tenant) {
  w.BeginSection(snapshot::kTagDistMsg);
  w.PutU64(tenant);
  w.EndSection();
}

uint64_t GetTenantId(snapshot::Reader& r) {
  r.BeginSection(snapshot::kTagDistMsg);
  const uint64_t tenant = r.GetU64();
  r.EndSection();
  return tenant;
}

void PutSnapshotReply(snapshot::Writer& w, const SnapshotReply& reply) {
  w.BeginSection(snapshot::kTagDistMsg);
  w.PutU64(reply.state);
  w.EndSection();
  if (reply.state == kTenantLive) PutCheckpoint(w, reply.checkpoint);
}

void GetSnapshotReply(snapshot::Reader& r, SnapshotReply* out) {
  *out = SnapshotReply();
  r.BeginSection(snapshot::kTagDistMsg);
  out->state = r.GetU64();
  r.EndSection();
  if (out->state == kTenantLive) GetCheckpoint(r, &out->checkpoint);
}

void PutShedInfo(snapshot::Writer& w, const ShedInfo& info) {
  w.BeginSection(snapshot::kTagDistMsg);
  w.PutU64(info.tenant);
  w.PutU64(info.state);
  w.PutU64(info.rounds);
  w.PutU64(info.misses);
  w.EndSection();
}

ShedInfo GetShedInfo(snapshot::Reader& r) {
  ShedInfo info;
  r.BeginSection(snapshot::kTagDistMsg);
  info.tenant = r.GetU64();
  info.state = r.GetU64();
  info.rounds = r.GetU64();
  info.misses = r.GetU64();
  r.EndSection();
  return info;
}

}  // namespace dist
}  // namespace fleet
}  // namespace rrs
