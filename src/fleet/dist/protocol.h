// Wire protocol of the distributed fleet (fleet/dist/): the message
// vocabulary spoken between the DistController and its forked worker
// processes over Unix-domain stream sockets.
//
// Transport: net/socket.h length-prefixed uint64-word frames. Every frame
// payload is a snapshot::Writer word stream — magic + codec version header
// followed by checksummed sections — so each message gets the snapshot
// layer's corruption detection and version-skew refusal (a worker built
// against a newer codec cannot silently feed this controller). Tenant
// checkpoints travel *verbatim* as the PR-5 snapshot codec words produced by
// Engine::SnapshotRun: migration's wire format IS the checkpoint format, and
// a restore on the target worker is bit-identical to never having moved.
//
// Control flow is strictly request/response per worker, with one exception:
// kMsgTick is broadcast to every worker before any kMsgTickDone is read, so
// workers step their live sessions in parallel across processes while the
// controller waits at the barrier. Everything that mutates placement
// (migration, shedding, failover restores) happens between ticks, when every
// worker is quiesced at the barrier — the "quiesce-at-tick-barrier →
// snapshot → ship → restore" migration state machine of DESIGN.md §3.12.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/instance.h"
#include "snapshot/codec.h"
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
inline constexpr uint64_t kProtocolVersion = 5;

enum MsgType : uint64_t {
  kMsgHello = 1,           // worker -> ctl: index, pid, protocol, metrics port
  kMsgConfig = 2,          // ctl -> worker: WireConfig
  kMsgConfigAck = 3,       // worker -> ctl: Hello body to Config, else empty
  kMsgAddInstances = 4,    // ctl -> worker: deduplicated instance table slice
  kMsgAddTenants = 5,      // ctl -> worker: TenantSpec batch
  kMsgTick = 6,            // ctl -> worker (broadcast): advance one tick
  kMsgTickDone = 7,        // worker -> ctl: TickReport
  kMsgSnapshotTenant = 8,  // ctl -> worker: quiesced tenant -> checkpoint
  kMsgTenantSnapshot = 9,  // worker -> ctl: the checkpoint words
  kMsgRestoreTenant = 10,  // ctl -> worker: checkpoint words -> live session
  kMsgRestoreAck = 11,     // worker -> ctl: empty
  kMsgShedTenant = 12,     // ctl -> worker: abort and discard a tenant
  kMsgShedAck = 13,        // worker -> ctl: partial progress at the cut
  kMsgShutdown = 14,       // ctl -> worker
  kMsgBye = 15,            // worker -> ctl: empty
  kMsgAddSources = 16,     // ctl -> worker: deduplicated GeneratorSpec table
};

const char* MsgTypeName(uint64_t type);

// ---- Message bodies ------------------------------------------------------

struct HelloInfo {
  uint64_t worker_index = 0;
  uint64_t pid = 0;
  uint64_t protocol_version = kProtocolVersion;
  uint64_t metrics_port = 0;  // worker's own /metrics endpoint; 0 = none
};

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

// Cumulative per-tenant progress at a tick barrier — exactly what the
// controller's SloTracker::Observe consumes.
struct TenantProgress {
  uint64_t tenant = 0;
  uint64_t rounds = 0;  // engine.next_round()
  uint64_t misses = 0;  // engine.run_cost().drops
};

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

// A tenant checkpoint in flight: codec words + the round it was cut at.
struct TenantCheckpoint {
  uint64_t tenant = 0;
  uint64_t round = 0;
  std::vector<uint64_t> words;
};

struct TenantResult {
  uint64_t tenant = 0;
  RunResult result;
};

// kMsgTick broadcast body. `checkpoint` asks the worker to snapshot every
// still-live tenant after stepping — the checkpoint stream failover recovers
// from.
struct TickCmd {
  uint64_t tick = 0;
  bool checkpoint = false;
};

// Where a kMsgSnapshotTenant / kMsgShedTenant request found its tenant.
enum TenantState : uint64_t {
  kTenantMissing = 0,  // protocol bug: controller asked the wrong worker
  kTenantLive = 1,     // had an open run (snapshot words present)
  kTenantWaiting = 2,  // assigned but not yet admitted (nothing to snapshot)
};

// kMsgTenantSnapshot reply. words are present only for kTenantLive; a
// waiting tenant migrates by re-shipping its spec to the target instead.
struct SnapshotReply {
  uint64_t state = kTenantMissing;
  TenantCheckpoint checkpoint;
};

// kMsgShedAck reply: the tenant's progress at the cut (for the controller's
// shed accounting).
struct ShedInfo {
  uint64_t tenant = 0;
  uint64_t state = kTenantMissing;  // TenantState
  uint64_t rounds = 0;
  uint64_t misses = 0;
};

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

// ---- Encoding ------------------------------------------------------------
//
// Writers append sections to a snapshot::Writer that the caller has
// Clear()ed; readers consume the mirror-image sections. All multi-row
// payloads are flat word runs inside one section — the codec checksums the
// lot.

void PutString(snapshot::Writer& w, const std::string& s);
std::string GetString(snapshot::Reader& r);

void PutHello(snapshot::Writer& w, const HelloInfo& hello);
HelloInfo GetHello(snapshot::Reader& r);

void PutConfig(snapshot::Writer& w, const WireConfig& config);
WireConfig GetConfig(snapshot::Reader& r);

void PutInstanceTable(snapshot::Writer& w,
                      const std::vector<const Instance*>& instances,
                      uint32_t first_id);
// Appends (id, instance) pairs decoded from one kMsgAddInstances payload.
void GetInstanceTable(snapshot::Reader& r,
                      std::vector<std::pair<uint32_t, Instance>>* out);

void PutTenantSpecs(snapshot::Writer& w,
                    const std::vector<TenantSpec>& specs);
void GetTenantSpecs(snapshot::Reader& r, std::vector<TenantSpec>* out);

// kMsgAddSources payload: `specs[i]` gets id `first_id + i` (the controller
// ships each new spec to every worker exactly once, in id order).
void PutSourceTable(snapshot::Writer& w,
                    const std::vector<const workload::GeneratorSpec*>& specs,
                    uint32_t first_id);
// Appends (id, spec) pairs decoded from one kMsgAddSources payload.
void GetSourceTable(
    snapshot::Reader& r,
    std::vector<std::pair<uint32_t, workload::GeneratorSpec>>* out);

void PutTickReport(snapshot::Writer& w, const TickReport& report);
void GetTickReport(snapshot::Reader& r, TickReport* out);

void PutCheckpoint(snapshot::Writer& w, const TenantCheckpoint& checkpoint);
void GetCheckpoint(snapshot::Reader& r, TenantCheckpoint* out);

void PutResult(snapshot::Writer& w, uint64_t tenant, const RunResult& result);
void GetResult(snapshot::Reader& r, TenantResult* out);

void PutTickCmd(snapshot::Writer& w, const TickCmd& cmd);
TickCmd GetTickCmd(snapshot::Reader& r);

// Single-tenant request body (kMsgSnapshotTenant, kMsgShedTenant).
void PutTenantId(snapshot::Writer& w, uint64_t tenant);
uint64_t GetTenantId(snapshot::Reader& r);

void PutSnapshotReply(snapshot::Writer& w, const SnapshotReply& reply);
void GetSnapshotReply(snapshot::Reader& r, SnapshotReply* out);

void PutShedInfo(snapshot::Writer& w, const ShedInfo& info);
ShedInfo GetShedInfo(snapshot::Reader& r);

}  // namespace dist
}  // namespace fleet
}  // namespace rrs
