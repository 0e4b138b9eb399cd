// stackbench: the repo benchmark.
//
// One binary runs one workload per process (`--workload`, `--seed`,
// `--seconds`, `--trace`). Every op is a closed loop with one caller: the
// next op starts when the previous one returns, and its outputs are checked
// against an oracle computed outside every timed span. The untraced run
// (`--trace 0`) reports the end-to-end metrics; the traced run (`--trace 1`)
// records spans around the calls into each layer and drives the same tenants
// through each layer on its own, which gives the per-layer ledger.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/instance.h"
#include "fleet/dist/controller.h"
#include "fleet/fleet_runner.h"
#include "workload/arrival_source.h"
#include "workload/generator_spec.h"

namespace stackbench {

class SpanLog;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The clock the end-to-end timings are read on, for workloads whose work
// runs in this process: CPU time, which the kernel counts without the time
// the hypervisor steals from a virtual CPU. On a shared VM steal comes in
// bursts of seconds, in episodes of minutes, and moves the wall-clock
// figures of whole runs past the bounds (README.md, Steadiness). A span
// reads as the largest CPU time any one thread of this process spent in it:
// the op's critical path, since a FleetRunner's caller and its pool thread
// each run one shard side by side. Time a thread spends blocked, or waiting
// for a CPU, is not counted.
class CpuSpan {
 public:
  // The calling thread's clock is read last here and first in Seconds(),
  // so listing the other threads stays outside the span.
  CpuSpan() : others_(OtherThreadsNs()), self_(SelfNs()) {}
  double Seconds() const;

 private:
  static uint64_t SelfNs();
  // CPU time of every other thread of this process, in ns, by thread id.
  static std::map<long, uint64_t> OtherThreadsNs();

  std::map<long, uint64_t> others_;
  uint64_t self_;
};

enum class WorkloadKind { kFleetLanes, kFleetChurn, kDistCkpt, kRatioAudit };

// Parses a workload name; false for an unknown one.
bool ParseWorkload(const std::string& name, WorkloadKind* kind);
const char* WorkloadName(WorkloadKind kind);

// How much input a run builds and how much it must measure.
struct Sizing {
  size_t waves = 2;           // distinct inputs the op loop cycles through
  size_t wave_tenants = 1024;  // tenants per op (ratio-audit: 1 instance)
  size_t setup_reps = 5;      // set-ups per run; setup_s is their median
  size_t min_ops = 100;       // the op_ms_p90 sample needs 10 beyond it
};

// `quick` is the benchmark's own test sizing: 2 waves (16 audit instances),
// 2 set-ups and a handful of ops.
Sizing DefaultSizing(WorkloadKind kind, bool quick);

// Fixed by the benchmark on every machine (the reference box has 4 CPUs).
inline constexpr size_t kPoolThreads = 2;
inline constexpr size_t kDistWorkers = 2;
inline constexpr uint32_t kBatchWidth = 64;
inline constexpr size_t kLiveCap = 64;      // live sessions per shard
inline constexpr rrs::Round kRoundsPerTick = 32;
// Dist ticks are longer: every tick is a barrier across processes, whose
// wake-ups dominate short ticks on a virtual machine.
inline constexpr rrs::Round kDistRoundsPerTick = 64;
inline constexpr uint32_t kAuditOptResources = 1;  // OPT side of ratio-audit

// ---- Tenants ---------------------------------------------------------------

// One tenant: the wire-compact generator spec it ships as, the streaming
// source prototype built from it (ops Clone it), its engine options, and —
// for pipeline and audit tenants — the materialized instance.
struct Tenant {
  rrs::workload::GeneratorSpec spec;
  std::unique_ptr<rrs::workload::ArrivalSource> proto;
  rrs::EngineOptions options;
  bool pipeline = false;
  rrs::Instance instance;
};

// Deterministic per-tenant seed from the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t index);

// Tenants [0, count) of wave `wave`, built through the workload/ factories.
// For ratio-audit a "wave" is the instance corpus.
std::vector<Tenant> BuildWave(WorkloadKind kind, uint64_t seed, size_t wave,
                              size_t count);

// FleetJobs over `tenants`, which must outlive them: replay tenants stream
// from a Clone of their prototype made at admission, pipeline tenants run
// their materialized instance.
std::vector<rrs::fleet::FleetJob> FleetJobs(const std::vector<Tenant>& tenants);
// The replay tenants as dist jobs: their GeneratorSpecs travel to the
// workers (a closure cannot).
std::vector<rrs::fleet::FleetJob> DistJobs(const std::vector<Tenant>& tenants);

// The fleet workloads' runner settings, without the obs plane. A null pool
// runs every shard in the caller.
rrs::fleet::FleetOptions FleetOptionsFor(rrs::ThreadPool* pool);
// One dist-ckpt lifecycle: a DistController over `jobs` on `workers` worker
// processes with the checkpoint stream on, SLOs tracked and migrations
// scripted at barriers. Each controller call is timed, and traced when
// `log` is set. `op` varies which tenants migrate.
// A lifecycle whose Start fails has no results.
struct DistLifecycle {
  double start_s = 0;
  double addjobs_s = 0;
  double run_s = 0;
  double shutdown_s = 0;
  std::vector<rrs::RunResult> results;
  rrs::fleet::dist::DistStats stats;
};
DistLifecycle RunDistLifecycle(size_t workers,
                               const std::vector<rrs::fleet::FleetJob>& jobs,
                               uint64_t op, SpanLog* log);

// Σ rounds_simulated over `results`.
uint64_t SumRounds(const std::vector<rrs::RunResult>& results);

// ---- Oracles ---------------------------------------------------------------

// The parts of a RunResult every oracle compares.
struct ResultKey {
  uint64_t reconfigurations = 0;
  uint64_t drops = 0;
  uint64_t weighted_drops = 0;
  uint64_t executed = 0;
  uint64_t arrived = 0;
  uint64_t rounds = 0;
  uint64_t drops_digest = 0;  // over drops_per_color

  friend bool operator==(const ResultKey&, const ResultKey&) = default;
};

ResultKey KeyOf(const rrs::RunResult& result);

// A replay tenant's answer from a freshly constructed Engine run of a fresh
// clone of its source under ΔLRU-EDF; a pipeline tenant's answer from
// reduce::SolveOnline's certified cost. A pipeline whose schedule does not
// validate yields a key no run can match.
ResultKey OracleKey(const Tenant& tenant);

// ---- Spans -----------------------------------------------------------------

// In-memory span log: name, start, end, parent and op id per span. Written
// out at exit as Chrome trace_event JSON through obs::Tracer.
class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int64_t parent = -1;
    uint64_t op = 0;
  };

  size_t Open(std::string_view name, uint64_t op);
  void Close(size_t index);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer (the name up to its first '.'): each span's
  // duration minus the part its direct children cover, summed.
  std::map<std::string, double> SelfSeconds() const;

  bool WriteChromeJson(const std::string& path) const;

 private:
  const char* Intern(std::string_view name);

  std::vector<Span> spans_;
  std::vector<size_t> open_;
  std::deque<std::string> names_;
  std::map<std::string, const char*, std::less<>> interned_;
};

// Times its scope into `log`; a null log makes it free apart from a branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string_view name, uint64_t op)
      : log_(log), index_(log != nullptr ? log->Open(name, op) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

// ---- Workloads -------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  // Everything before the first timed op: inputs through the workload/
  // factories, runners, pools and the obs plane, and one warm-up op.
  virtual void Setup(uint64_t seed) = 0;
  // Oracle answers for every input the op loop uses. Never timed.
  virtual void BuildOracle() = 0;
  // Replaces one oracle answer with a wrong one (the benchmark's own tests
  // check that the op using it counts as failed).
  virtual void CorruptOracle() = 0;
  // Runs op `i` (input i mod the input count) and returns the rounds its
  // completed tenants simulated. `log` is null in untraced runs.
  virtual uint64_t RunOp(size_t i, SpanLog* log) = 0;
  // Whether op i's outputs match the oracle.
  virtual bool CheckOp(size_t i) = 0;
  // Checks after the timed loop; false with *why on a mismatch.
  virtual bool Finish(std::string* why) {
    (void)why;
    return true;
  }
  // The runner behind the op loop, when there is one (lane occupancy).
  virtual const rrs::fleet::FleetRunner* runner() const { return nullptr; }
  // Whether the ops run in worker processes, whose threads a CpuSpan of
  // this process does not see: such a workload is timed on the wall clock.
  virtual bool runs_in_workers() const { return false; }
};

std::unique_ptr<Workload> MakeWorkload(WorkloadKind kind, const Sizing& sizing);

// ---- Report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Linear-interpolated quantile of `values` (copied and sorted).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Machine context recorded with every run: usable CPUs (sched_getaffinity
// and cgroup cpu.max), and steal/iowait shares of /proc/stat deltas.
class MachineContext {
 public:
  MachineContext();  // takes the first /proc/stat sample
  // Takes the second sample and prints one `context {...}` line.
  void Print(uint64_t seed, FILE* out);
  bool comparable() const;

 private:
  struct CpuTimes {
    uint64_t total = 0;
    uint64_t steal = 0;
    uint64_t iowait = 0;
  };
  static CpuTimes ReadProcStat();

  CpuTimes start_;
  int affinity_cpus_ = 0;
  double cgroup_cpus_ = -1;  // -1: no cgroup limit found
};

// Largest peak RSS of this process and of any reaped child, in MB.
double PeakRssMb();

// Prints the metrics table and, as the last line, the result JSON.
void PrintResult(FILE* out, bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

// ---- Traced run ------------------------------------------------------------

// The per-layer ledger of the traced run. Forking rows (worker processes)
// run first, before the process starts any thread.
class Ledger {
 public:
  Ledger(WorkloadKind kind, uint64_t seed, const Sizing& sizing, SpanLog* log);
  ~Ledger();

  void RunForkingRows();
  void RunInProcessRows();
  // Op-loop figures: traced and untraced rounds/s, and the loop's runner.
  void RecordOpLoop(double traced_rps, double untraced_rps,
                    const rrs::fleet::FleetRunner* runner);

  std::vector<Metric> Metrics() const;
  void Print(FILE* out) const;
  // The property split the two fleet workloads exist for:
  // fleet.lane_occupancy >= 0.9 on fleet-lanes and <= 0.25 on fleet-churn.
  bool ChecksPass() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace stackbench
