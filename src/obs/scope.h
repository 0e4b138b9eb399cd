// obs::Scope — the handle engines and harnesses share to opt a run into
// observability, plus obs::RunInstruments, the run-local instrument block
// the engines actually touch on the hot path.
//
// Threading model: a Scope may be shared by many concurrent engine runs
// (parallel sweeps). Each run keeps all hot-path state run-local (plain
// uint64 counters, fixed LogHistograms — no sharing, no atomics) and folds
// one finished run into the scope's aggregate Registry under a mutex
// (Scope::Absorb). Trace events go straight to the scope's Tracer, whose
// per-track rings are single-writer by construction (each run registers its
// own phase tracks; pool workers use per-thread tracks).
//
// Cost model: with no scope attached a run pays one pointer test per phase
// boundary. With a scope attached (metrics only), phase wall times are
// *sampled* — every 2^sample_shift rounds (default 32) — so the steady-state
// clock overhead is ~3% of rounds, measured (not assumed) by the perf gate:
// bench_baseline attaches a scope to every cell, and tools/bench_compare.py
// holds the result inside the 15% budget. Attaching a Tracer switches to
// per-round timestamps (a trace with 31/32 rounds missing is useless), which
// is the explicitly-requested expensive mode.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/types.h"
#include "obs/level.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace rrs {

struct RunResult;

namespace obs {

class Scope {
 public:
  struct Options {
    // Phase wall times are measured on rounds where (k & (2^shift - 1)) == 0.
    uint32_t sample_shift = 5;
    Tracer* tracer = nullptr;  // not owned; null = metrics only
  };

  Scope() = default;
  explicit Scope(Options options) : options_(options) {}

  Tracer* tracer() const { return options_.tracer; }
  void set_tracer(Tracer* tracer) { options_.tracer = tracer; }
  uint32_t sample_mask() const { return (1u << options_.sample_shift) - 1; }

  // Monotonic id naming each run's trace tracks ("run3/engine/drop").
  uint64_t NextRunId() {
    std::lock_guard<std::mutex> lock(mutex_);
    return next_run_id_++;
  }

  // Folds one finished run into the aggregate registry (thread-safe):
  // engine.* counters and per-color drops from the RunResult, per-color
  // reconfigs and policy counters from its telemetry, and per-phase duration
  // histograms.
  void Absorb(const RunResult& result, const LogHistogram* phase_ns);

  // Generic absorption for non-engine producers (e.g. the offline solver):
  // adds each (name, delta) into the aggregate counters / merges a finished
  // run-local histogram, thread-safe. Cold path — callers batch at end of
  // run, never per event.
  void AbsorbCounters(
      std::span<const std::pair<std::string_view, uint64_t>> counters);
  void AbsorbHistogram(std::string_view name, const LogHistogram& histogram);
  void AbsorbGauge(std::string_view name, double value);

  // The cross-run aggregate. Safe to read once all runs absorbed (the
  // reference is unsynchronized; Absorb is the only concurrent writer).
  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }

  uint64_t runs_absorbed() const { return runs_absorbed_; }

  // Consistent snapshots for live scrapes: render the aggregate under the
  // same mutex Absorb takes, so an export server can read while runs are
  // still folding in. (registry() stays the unsynchronized post-run view.)
  std::string RenderPrometheus(std::string_view prefix = "rrs") const;
  std::string RenderJson() const;

  // One-line summary of everything absorbed so far (runs, drops, reconfigs,
  // phase p50/p99) — what run_experiments prints after each experiment.
  std::string SummaryLine() const;

 private:
  // Adds counts[c] to the `prefix`c counter for every nonzero c, through
  // handles[c], created on the color's first nonzero count. The handles make
  // absorbing a run allocation-free once its colors have been seen.
  void AbsorbPerColor(const std::vector<uint64_t>& counts, const char* prefix,
                      std::vector<Counter*>& handles);

  Options options_;
  mutable std::mutex mutex_;
  Registry registry_;
  // engine.{drops,reconfigs}.color<c> handles; Registry references are
  // stable for its lifetime.
  std::vector<Counter*> drops_by_color_;
  std::vector<Counter*> reconfigs_by_color_;
  uint64_t next_run_id_ = 0;
  uint64_t runs_absorbed_ = 0;
};

// Process-global fallback scope: engines use the run's explicit
// EngineOptions scope when set, else this. Install/clear from a
// single-threaded section (a plain pointer, unsynchronized by design).
Scope* GlobalScope();
void SetGlobalScope(Scope* scope);

inline Scope* EffectiveScope(Scope* explicit_scope) {
  return explicit_scope != nullptr ? explicit_scope : GlobalScope();
}

#if RRS_OBS_LEVEL >= 1

// Run-local instruments: constructed at the top of Engine::Run /
// RunPolicyReference, updated inline during the round loop, summarized into
// RunResult::telemetry and absorbed into the scope at the end. All state is
// owned by the running thread.
class RunInstruments {
 public:
  // `scope` may be null (falls back to the global scope, which may also be
  // null — then only the always-on structured counters are kept).
  RunInstruments(Scope* scope, const char* engine_name);

  // Unbound instruments for session cores constructed before their first
  // tenant; Rebind before the first run.
  RunInstruments() = default;

  // Re-arms the instruments for a new run on a (possibly different) scope:
  // clears the phase histograms and registers fresh trace tracks. This is
  // what lets one session object serve many tenants without reconstructing
  // its instrument block.
  void Rebind(Scope* scope, const char* engine_name);

  bool tracing() const { return tracer_ != nullptr; }

  // Whether round k's phase boundaries should take timestamps.
  bool ShouldSample(Round k) const {
    return scope_ != nullptr &&
           (tracer_ != nullptr ||
            (static_cast<uint64_t>(k) & sample_mask_) == 0);
  }

  // Records phase duration [t0, t1) for round k; emits a trace span when a
  // tracer is attached. Only call on sampled rounds.
  void RecordPhase(int phase, Round k, uint64_t t0, uint64_t t1) {
    phase_ns_[phase].Record(t1 - t0);
    if (tracer_ != nullptr) {
      tracer_->Emit(tracks_[phase], PhaseName(phase), t0, t1 - t0,
                    static_cast<uint64_t>(k));
    }
  }

  // Zero-duration "recolor" marker on the reconfig track (policy decisions
  // become visible in the trace). Only called when tracing.
  void EmitRecolor(Round k, ResourceId r) {
    if (tracer_ != nullptr) {
      tracer_->Emit(tracks_[kPhaseReconfig], "recolor", NowNs(), 0,
                    static_cast<uint64_t>(k));
      (void)r;
    }
  }

  // Fills the run's telemetry phase summaries and folds the run into the
  // scope (if any). Call once, after the telemetry counters are populated.
  void Finalize(RunResult& result);

 private:
  Scope* scope_ = nullptr;
  Tracer* tracer_ = nullptr;
  uint32_t sample_mask_ = 31;
  TraceTrack* tracks_[kNumPhases] = {};
  LogHistogram phase_ns_[kNumPhases];
};

#else  // RRS_OBS_LEVEL == 0: every member erases to a constant.

class RunInstruments {
 public:
  RunInstruments() = default;
  RunInstruments(Scope*, const char*) {}
  void Rebind(Scope*, const char*) {}
  static constexpr bool tracing() { return false; }
  static constexpr bool ShouldSample(Round) { return false; }
  void RecordPhase(int, Round, uint64_t, uint64_t) {}
  void EmitRecolor(Round, ResourceId) {}
  void Finalize(RunResult&) {}
};

#endif

}  // namespace obs
}  // namespace rrs
