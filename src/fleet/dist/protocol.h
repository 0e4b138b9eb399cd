// Wire protocol of the distributed fleet (fleet/dist/): the message
// vocabulary spoken between the DistController and its forked worker
// processes over Unix-domain stream sockets.
//
// Transport: net/socket.h length-prefixed uint64-word frames. Every frame
// payload is a snapshot::Writer word stream — magic + codec version header
// followed by one kTagDistMsg section holding the message body — so each
// message gets the snapshot layer's corruption detection and version-skew
// refusal (a worker built against a newer codec cannot silently feed this
// controller). Every body's layout is declared once, as a Fields list next
// to its struct (snapshot/fields.h); Put writes a body and Get<T> reads it
// back through the bounded reader, so no announced count can make a
// decoder allocate past the frame's own size. Tenant checkpoints travel
// *verbatim* as the snapshot codec words produced by Engine::SnapshotRun:
// migration's wire format IS the checkpoint format, and a restore on the
// target worker is bit-identical to never having moved.
//
// Control flow is strictly request/response per worker, with one exception:
// kMsgTick is broadcast to every worker before any kMsgTickDone is read, so
// workers step their live sessions in parallel across processes while the
// controller waits at the barrier. Everything that mutates placement
// (migration, shedding, failover restores) happens between ticks, when every
// worker is quiesced at the barrier — the "quiesce-at-tick-barrier →
// evict → ship → restore" migration state machine of DESIGN.md §3.12.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/instance.h"
#include "snapshot/codec.h"
#include "snapshot/fields.h"
#include "workload/generator_spec.h"

namespace rrs {
namespace fleet {
namespace dist {

// Codec version of the *protocol* layer (bumped independently of the
// snapshot payload format, which carries its own header inside checkpoint
// words). Carried in kMsgHello so a mixed-version pool fails at handshake
// with both numbers in the message, not mid-run on a garbled frame.
// v2: TenantSpec carries source_id; kMsgAddSources ships GeneratorSpec
// tables so streaming tenants travel as O(colors) specs, not O(jobs)
// instances.
// v3: WireConfig drops the worker-internal thread count (a worker runs one
// fleet::TickCore; worker processes provide the parallelism).
// v4: the bodies the controller never read are gone: Bye, RestoreAck and
// the ConfigAck replies to AddInstances/AddTenants/AddSources are
// header-only frames.
// v5: a TenantResult sends each run figure once: the telemetry block drops
// its copies of arrived, executed, drops, reconfigs, rounds and per-color
// drops, which the RunResult fields already carry.
// v6: one kTagDistMsg section per frame, laid out by the body's Fields
// list; GeneratorSpec names pack eight bytes per word; migration's snapshot
// exchange and shedding's shed exchange are one EvictTenant/TenantEvicted
// pair.
inline constexpr uint64_t kProtocolVersion = 6;

// Types 12 and 13 (the v5 ShedTenant/ShedAck pair) are retired: never reuse
// them.
enum MsgType : uint64_t {
  kMsgHello = 1,          // worker -> ctl: HelloInfo
  kMsgConfig = 2,         // ctl -> worker: WireConfig
  kMsgConfigAck = 3,      // worker -> ctl: HelloInfo to Config, else empty
  kMsgAddInstances = 4,   // ctl -> worker: InstanceTable
  kMsgAddTenants = 5,     // ctl -> worker: std::vector<TenantSpec>
  kMsgTick = 6,           // ctl -> worker (broadcast): TickCmd
  kMsgTickDone = 7,       // worker -> ctl: TickReport
  kMsgEvictTenant = 8,    // ctl -> worker: EvictTenant
  kMsgTenantEvicted = 9,  // worker -> ctl: TenantEvicted
  kMsgRestoreTenant = 10, // ctl -> worker: RestoreTenant
  kMsgRestoreAck = 11,    // worker -> ctl: empty
  kMsgShutdown = 14,      // ctl -> worker: empty
  kMsgBye = 15,           // worker -> ctl: empty
  kMsgAddSources = 16,    // ctl -> worker: SourceTable
};

const char* MsgTypeName(uint64_t type);

// ---- Message bodies ------------------------------------------------------
//
// Each body's Fields list is its wire layout, in order.

struct HelloInfo {
  uint64_t worker_index = 0;
  uint64_t pid = 0;
  uint64_t protocol_version = kProtocolVersion;
  uint64_t metrics_port = 0;  // worker's own /metrics endpoint; 0 = none
};
template <class Io>
void Fields(Io& io, HelloInfo& m) {
  io(m.worker_index, m.pid, m.protocol_version, m.metrics_port);
}

struct WireConfig {
  Round rounds_per_tick = 64;
  uint64_t max_live_sessions = 0;  // per worker; 0 = unbounded
  bool collect_results = true;     // ship full RunResults on completion
  bool report_slo = true;          // per-live-tenant progress rows per tick
  bool report_trace = false;       // per-round accumulator rows (digests)
  uint32_t checkpoint_interval_ticks = 0;  // 0 = no checkpoint stream
  bool serve_metrics = false;      // worker runs an ExportServer
  std::string policy;              // sched/registry name; empty = dlru-edf
};
template <class Io>
void Fields(Io& io, WireConfig& m) {
  io(m.rounds_per_tick, m.max_live_sessions, m.collect_results, m.report_slo,
     m.report_trace, m.checkpoint_interval_ticks, m.serve_metrics, m.policy);
}

// The subset of EngineOptions that travels (record_schedule and obs_scope
// are process-local concepts and rejected at AddJobs).
struct WireOptions {
  uint32_t num_resources = 1;
  int64_t mini_rounds_per_round = 1;
  uint64_t delta = 1;

  EngineOptions ToEngineOptions() const;
  static WireOptions From(const EngineOptions& options);
  friend bool operator==(const WireOptions&, const WireOptions&) = default;
};
template <class Io>
void Fields(Io& io, WireOptions& m) {
  io(m.num_resources, m.mini_rounds_per_round, m.delta);
}

// One color of a shipped instance.
struct WireColor {
  Round delay_bound = 1;
  uint64_t drop_cost = 1;
  std::string name;
};
template <class Io>
void Fields(Io& io, WireColor& m) {
  io(m.delay_bound, m.drop_cost, m.name);
}

// `count` identical jobs of one color arriving in one round.
struct JobRun {
  ColorId color = 0;
  Round arrival = 0;
  uint64_t count = 0;
};
template <class Io>
void Fields(Io& io, JobRun& m) {
  io(m.color, m.arrival, m.count);
}

// An instance in flight: its color table and its jobs, run-length encoded
// over identical (color, arrival) runs, so bulk workloads (AddJobs bursts)
// compress to one run per burst.
struct WireInstance {
  std::vector<WireColor> colors;
  std::vector<JobRun> jobs;

  static WireInstance From(const Instance& instance);
  // Rebuilds the instance through InstanceBuilder, whose checks every
  // shipped instance passes.
  Instance Build() const;
};
template <class Io>
void Fields(Io& io, WireInstance& m) {
  io(m.colors, m.jobs);
}

// kMsgAddInstances body: instances[i] gets id first_id + i.
struct InstanceTable {
  uint32_t first_id = 0;
  std::vector<WireInstance> instances;
};
template <class Io>
void Fields(Io& io, InstanceTable& m) {
  io(m.first_id, m.instances);
}

// kMsgAddSources body: specs[i] gets id first_id + i (the controller ships
// each new spec to every worker exactly once, in id order).
struct SourceTable {
  uint32_t first_id = 0;
  std::vector<workload::GeneratorSpec> specs;
};
template <class Io>
void Fields(Io& io, SourceTable& m) {
  io(m.first_id, m.specs);
}

// TenantSpec.source_id sentinel: the tenant is instance-fed.
inline constexpr uint32_t kNoSourceId = 0xffffffffu;

struct TenantSpec {
  uint64_t tenant = 0;       // global tenant id (job index)
  uint32_t instance_id = 0;  // into the shipped instance table
  // Streaming tenants reference the shipped GeneratorSpec table instead of
  // the instance table; the worker instantiates the ArrivalSource locally.
  uint32_t source_id = kNoSourceId;
  WireOptions options;
};
template <class Io>
void Fields(Io& io, TenantSpec& m) {
  io(m.tenant, m.instance_id, m.source_id, m.options);
}

// Cumulative per-tenant progress at a tick barrier — exactly what the
// controller's SloTracker::Observe consumes.
struct TenantProgress {
  uint64_t tenant = 0;
  uint64_t rounds = 0;  // engine.next_round()
  uint64_t misses = 0;  // engine.run_cost().drops
};
template <class Io>
void Fields(Io& io, TenantProgress& m) {
  io(m.tenant, m.rounds, m.misses);
}

// One simulated round of one tenant's mid-run accumulators — the golden
// trace digest unit (matches tests' TraceDigest fold).
struct TraceRow {
  uint64_t tenant = 0;
  uint64_t round = 0;
  uint64_t reconfigurations = 0;
  uint64_t drops = 0;
  uint64_t weighted_drops = 0;
  uint64_t executed = 0;
};
template <class Io>
void Fields(Io& io, TraceRow& m) {
  io(m.tenant, m.round, m.reconfigurations, m.drops, m.weighted_drops,
     m.executed);
}

// A tenant checkpoint in flight: codec words + the round it was cut at.
struct TenantCheckpoint {
  uint64_t tenant = 0;
  uint64_t round = 0;
  std::vector<uint64_t> words;
};
template <class Io>
void Fields(Io& io, TenantCheckpoint& m) {
  io(m.tenant, m.round, m.words);
}

// A completed tenant's RunResult. Telemetry travels as its deterministic
// fields only: phase wall times are per-machine noise, excluded from oracle
// comparisons anyway.
struct TenantResult {
  uint64_t tenant = 0;
  RunResult result;
};
template <class Io>
void Fields(Io& io, TenantResult& m) {
  RunResult& r = m.result;
  RRS_CHECK(!r.schedule.has_value())
      << "recorded schedules do not travel over the dist protocol";
  io(m.tenant, r.cost.reconfigurations, r.cost.drops, r.cost.weighted_drops,
     r.executed, r.arrived, r.rounds_simulated, r.drops_per_color,
     r.telemetry.reconfigs_per_color, r.telemetry.counters);
}

// kMsgTick body. `checkpoint` asks the worker to snapshot every still-live
// tenant after stepping — the checkpoint stream failover recovers from.
struct TickCmd {
  uint64_t tick = 0;
  bool checkpoint = false;
};
template <class Io>
void Fields(Io& io, TickCmd& m) {
  io(m.tick, m.checkpoint);
}

// Everything a worker reports at one tick barrier.
struct TickReport {
  uint64_t tick = 0;
  uint64_t rounds_stepped = 0;  // this tick, across live sessions
  uint64_t live = 0;            // after completions
  uint64_t waiting = 0;
  uint64_t tick_wall_ns = 0;    // step-phase wall time (overload signal)
  std::vector<TenantResult> completed;
  std::vector<TenantProgress> slo;        // still-live tenants, ascending id
  std::vector<TraceRow> trace;            // report_trace only
  std::vector<TenantCheckpoint> checkpoints;  // checkpoint stream, when due
};
template <class Io>
void Fields(Io& io, TickReport& m) {
  io(m.tick, m.rounds_stepped, m.live, m.waiting, m.tick_wall_ns, m.completed,
     m.slo, m.trace, m.checkpoints);
}

// kMsgEvictTenant body: take a tenant off its worker. Migration asks for
// the checkpoint words; shedding does not.
struct EvictTenant {
  uint64_t tenant = 0;
  bool checkpoint = false;
};
template <class Io>
void Fields(Io& io, EvictTenant& m) {
  io(m.tenant, m.checkpoint);
}

// Where an eviction found its tenant.
enum TenantState : uint64_t {
  kTenantMissing = 0,  // protocol bug: controller asked the wrong worker
  kTenantLive = 1,     // had an open run
  kTenantWaiting = 2,  // assigned but not yet admitted (no progress)
};

// kMsgTenantEvicted body: the tenant's progress at the cut — its round in
// checkpoint.round and its misses — and, for a live tenant whose eviction
// asked for them, its checkpoint words. A waiting tenant has made no
// progress; it migrates by re-shipping its spec to the target.
struct TenantEvicted {
  uint64_t state = kTenantMissing;  // TenantState
  uint64_t misses = 0;
  TenantCheckpoint checkpoint;
};
template <class Io>
void Fields(Io& io, TenantEvicted& m) {
  io(m.state, m.misses, m.checkpoint);
}

// kMsgRestoreTenant body: a live session from checkpoint words.
struct RestoreTenant {
  TenantSpec spec;
  TenantCheckpoint checkpoint;
};
template <class Io>
void Fields(Io& io, RestoreTenant& m) {
  io(m.spec, m.checkpoint);
}

// ---- Encoding ------------------------------------------------------------

// Writes `body` as one kTagDistMsg section into `w`, which the caller has
// Clear()ed.
template <class T>
void Put(snapshot::Writer& w, const T& body) {
  w.BeginSection(snapshot::kTagDistMsg);
  snapshot::FieldWriter{w}(body);
  w.EndSection();
}

// Reads the body Put wrote.
template <class T>
T Get(snapshot::Reader& r) {
  T body;
  r.BeginSection(snapshot::kTagDistMsg);
  snapshot::FieldReader{r}(body);
  r.EndSection();
  return body;
}

}  // namespace dist
}  // namespace fleet
}  // namespace rrs
