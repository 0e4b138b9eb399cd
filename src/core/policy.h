// The online-scheduler interface driven by the Engine.
//
// The engine owns the ground truth of the model (pending jobs, resource
// colors, cost accounting, the four-phase round structure) and calls into the
// policy at well-defined points:
//
//   round k:
//     drop phase      -> OnJobsDropped(k, color, count) per affected color,
//                        then AfterDropPhase(k)
//     arrival phase   -> OnArrivals(k, color, count) per arriving color,
//                        then AfterArrivalPhase(k)
//     per mini-round: -> Reconfigure(k, mini, view)  [policy recolors
//                        resources through the view; engine charges Δ per
//                        actual color change]
//     execution phase -> engine executes one earliest-deadline pending job of
//                        each resource's color (no policy involvement; the
//                        model fixes this behavior)
//
// Policies are single-threaded and owned by one engine run at a time; Reset()
// is called before each run so one policy object can be reused across runs.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/cost.h"
#include "core/instance.h"
#include "core/types.h"
#include "snapshot/codec.h"

namespace rrs {

namespace obs {
class Registry;
class Scope;
}  // namespace obs

struct EngineOptions {
  uint32_t num_resources = 1;
  int mini_rounds_per_round = 1;  // 2 = double-speed (Section 3.3)
  CostModel cost_model;
  bool record_schedule = false;
  // Optional observability scope (src/obs/scope.h): when set (or when a
  // global scope is installed), the run populates per-phase wall-time
  // histograms and per-color counters, and emits trace spans if the scope
  // carries a Tracer. Null = no timing, structured telemetry only.
  obs::Scope* obs_scope = nullptr;
};

// Engine-provided window onto the simulation state during a reconfiguration
// phase. SetColor is the only mutating operation available to policies.
//
// pending_count is deliberately NOT virtual: every engine maintains a dense
// per-color pending-count table and hands the view a pointer to it, so the
// ranking loops that query pending counts for every eligible color each
// round (ΔLRU-EDF, EDF, greedy) pay one array load instead of a virtual
// dispatch into engine-specific queue structures.
class ResourceView {
 public:
  virtual ~ResourceView() = default;

  virtual uint32_t num_resources() const = 0;
  virtual ColorId color_of(ResourceId r) const = 0;

  // Recolors resource r. A change to a different color costs Δ and is
  // recorded; setting the current color is a no-op (no cost).
  virtual void SetColor(ResourceId r, ColorId c) = 0;

  // Pending color-c jobs; O(1), non-virtual (see class comment). The table
  // is strided so lane views over the batched fleet's SoA slabs (one entry
  // per [color][lane], stride = lane width) share this fast path; scalar
  // engines use stride 1.
  uint64_t pending_count(ColorId c) const {
    return pending_by_color_[static_cast<size_t>(c) * pending_stride_];
  }

  // The engine's per-color pending table (indexed by ColorId times
  // pending_stride); lets wrapper views forward the non-virtual fast path.
  const uint64_t* pending_table() const { return pending_by_color_; }
  size_t pending_stride() const { return pending_stride_; }

  // Earliest deadline among pending color-c jobs; requires pending_count > 0.
  virtual Round earliest_deadline(ColorId c) const = 0;

  // Colors with at least one pending job (unordered).
  virtual const std::vector<ColorId>& nonidle_colors() const = 0;

 protected:
  // `pending_by_color` must stay valid (with num_colors strided entries) for
  // the view's lifetime; the owning engine keeps it current across phases.
  explicit ResourceView(const uint64_t* pending_by_color, size_t stride = 1)
      : pending_by_color_(pending_by_color), pending_stride_(stride) {}

  // Repoints the pending table. Session engines keep one view alive across
  // tenants and the table's storage may move when Reset grows it for a
  // larger color universe.
  void set_pending_table(const uint64_t* pending_by_color, size_t stride = 1) {
    pending_by_color_ = pending_by_color;
    pending_stride_ = stride;
  }

 private:
  const uint64_t* pending_by_color_;
  size_t pending_stride_ = 1;
};

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual std::string name() const = 0;

  // Called once before each run. The instance and options outlive the run.
  virtual void Reset(const Instance& instance, const EngineOptions& options) = 0;

  // Drop phase of round k dropped `count` color-c jobs, whose ids `jobs`
  // carries (valid for the duration of the call only).
  virtual void OnJobsDropped(Round k, ColorId c, uint64_t count,
                             std::span<const JobId> jobs) {
    (void)k;
    (void)c;
    (void)count;
    (void)jobs;
  }
  virtual void AfterDropPhase(Round k) { (void)k; }

  // Arrival phase of round k delivered `count` color-c jobs.
  virtual void OnArrivals(Round k, ColorId c, uint64_t count) {
    (void)k;
    (void)c;
    (void)count;
  }
  virtual void AfterArrivalPhase(Round k) { (void)k; }

  // Reconfiguration phase of mini-round (k, mini).
  virtual void Reconfigure(Round k, int mini, ResourceView& view) = 0;

  // Structured instrumentation: called once at end of run with a run-local
  // obs::Registry; policies register named counters/gauges/histograms (epoch
  // counts, eligible/ineligible drop split, ...). The values land in
  // RunResult::telemetry.counters and in the scope's aggregate registry.
  virtual void ExportMetrics(obs::Registry& registry) const {
    (void)registry;
  }

  // Checkpoint/restore (snapshot/codec.h). SaveState appends every piece of
  // run state that influences future decisions; LoadState is called on a
  // policy already Reset against the same instance and options and must
  // leave it indistinguishable from the saved one. Engines call these as
  // part of their own snapshot/restore at round boundaries, so policies only
  // see state between rounds (per-phase scratch need not be saved). The
  // default covers stateless policies (EDF, greedy, lookahead: every
  // decision derives from engine state the engine itself snapshots).
  virtual void SaveState(snapshot::Writer& w) const { (void)w; }
  virtual void LoadState(snapshot::Reader& r) { (void)r; }
};

}  // namespace rrs
