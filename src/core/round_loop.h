// The model's round, written once: the run state, the ResourceView, the
// drop / arrival / reconfiguration / execution phases, the result fill and
// the engine-section checkpoint codec, as a template over a *lane set*.
//
// A lane set is a group of runs that advance in lock-step, one round at a
// time. `Engine` (core/engine.cpp) is the width-1 instance, and
// `fleet::BatchEngine` (fleet/batch_engine.cpp) the instance of up to 64
// lanes. The width is a compile-time parameter because it is on the hot path:
// at width 1 the lane index, the pending-table stride and the lane masks fold
// away, wheel entries are bare colors, and execution is a per-mini-round
// histogram over resources. Above width 1 the slab shares one pending table
// indexed [color * width + lane], one timing wheel of (color, lane) entries,
// backlog and colored lane bitmasks, and a masked execution walk over colors.
//
// The concrete lane set derives from RoundLoop (CRTP). Above width 1 it may
// route a lane's policy hooks to a lane-fused kernel instead of the policy's
// virtual hooks: lanes in fused_mask go through the lane set's
// FusedDropped / FusedAfterDrop / FusedArrivals / FusedReconfigure /
// FusedFlush members. That is how the batched fleet's ΔLRU-EDF kernel
// (sched/lane_kernels.h) reaches the loop without core/ depending on sched/.
// Every policy, fused or not, sees the same callbacks in the same order as on
// the scalar engine, so results and checkpoint words are bit-identical
// across instances (tests/batch_engine_test.cpp, tests/differential_test.cpp).
//
// The expiry schedule is a timing wheel over the next max-delay-bound rounds:
// when round k's arrival phase gives color c the deadline k + D_c, the color
// is pushed (deduplicated per deadline) into slot (k + D_c) mod W with
// W = max D_ℓ + 1, and round k's drop phase consumes exactly slot k mod W.
// The round's slot is computed once per round; an arrival's slot is that
// plus D_c, wrapped by one conditional subtraction. Deadlines live at most
// max D_ℓ rounds, so a slot is always consumed (and cleared) before it is
// reused, a finished run leaves no entry behind, and an aborted one is
// scrubbed.
//
// Internal header (engine implementations only).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/cost.h"
#include "core/engine.h"
#include "core/instance.h"
#include "core/job_ring.h"
#include "core/policy.h"
#include "core/run_telemetry.h"
#include "core/schedule.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "snapshot/codec.h"
#include "util/check.h"
#include "workload/arrival_source.h"

namespace rrs {
namespace internal {

// One tenant's run. Buffers are assigned (not reconstructed) per run, so
// capacity acquired for one tenant carries over to the next: after the first
// tenant of a given shape, runs perform no steady-state allocation (Session
// rules 1-2, core/session.h). The pending counts live in the loop's shared
// table, not here.
struct RunState {
  const Instance* instance = nullptr;  // the tenant's shape
  workload::ArrivalSource* source = nullptr;
  // Arrivals are read straight from instance's job vector (the source is
  // the loop owner's InstanceSource adapter over it, re-synced per step).
  bool instance_fed = false;
  SchedulerPolicy* policy = nullptr;
  EngineOptions options;
  Round horizon = 0;
  Round request_rounds = 0;
  // The wheel size the checkpoint codec writes: max D + 1, or the size of
  // the checkpoint the run was restored from (so a re-checkpoint repeats its
  // words exactly).
  uint64_t wheel_size = 0;
  Schedule* schedule = nullptr;  // recording sink; width 1 only

  std::vector<ColorId> resource_color;
  std::vector<JobRing> rings;
  std::vector<ColorId> nonidle_list;  // lazily compacted
  std::vector<uint8_t> in_nonidle_list;
  std::vector<Round> last_wheel_push;  // per color, deduplicates wheel pushes

  CostBreakdown cost;
  uint64_t executed = 0;
  // Jobs pulled from the source so far; doubles as the next dense JobId
  // (arrivals are numbered consecutively in emission order, which for an
  // InstanceSource reproduces the Instance's JobIds exactly).
  uint64_t arrived = 0;
  std::vector<uint64_t> drops_per_color;
#if RRS_OBS_LEVEL >= 1
  // Per-color recoloring counts (telemetry); recolorings to black are only
  // in the aggregate total.
  std::vector<uint64_t> reconfigs_per_color;
#endif
};

// The one ResourceView implementation: a lane's window onto its loop.
// `final` so calls through the concrete type devirtualize; policies still
// see the ResourceView interface.
template <class Loop>
class RunView final : public ResourceView {
 public:
  RunView() : ResourceView(nullptr) {}

  void Attach(Loop* loop, uint32_t lane) {
    loop_ = loop;
    lane_ = lane;
  }
  // Re-points the strided pending fast path (the table may move when the
  // loop adopts a larger shape).
  void Rebind() {
    set_pending_table(loop_->pending_.data() + lane_, loop_->width());
  }

  uint32_t num_resources() const final { return loop_->num_resources_; }

  ColorId color_of(ResourceId r) const final {
    RRS_DCHECK(r < run().resource_color.size());
    return run().resource_color[r];
  }

  void SetColor(ResourceId r, ColorId c) final {
    RunState& run = this->run();
    RRS_CHECK_LT(r, run.resource_color.size());
    RRS_CHECK(c == kNoColor || c < loop_->num_colors_)
        << "SetColor to unknown color " << c;
    const ColorId old = run.resource_color[r];
    if (old == c) return;
    run.resource_color[r] = c;
    ++run.cost.reconfigurations;
#if RRS_OBS_LEVEL >= 1
    if (c != kNoColor) ++run.reconfigs_per_color[c];
#endif
    if constexpr (Loop::kScalar) {
#if RRS_OBS_LEVEL >= 1
      if (loop_->instruments_.tracing()) {
        loop_->instruments_.EmitRecolor(loop_->phase_round_, r);
      }
#endif
      if (run.schedule != nullptr) {
        run.schedule->AddReconfig(loop_->phase_round_, loop_->phase_mini_, r,
                                  c);
      }
    } else {
      // The slab's per-(color, lane) resource histogram, which the masked
      // execution walk reads instead of rescanning resource colors.
      const size_t width = loop_->width();
      const uint64_t bit = uint64_t{1} << lane_;
      if (old != kNoColor) {
        uint32_t& count = loop_->colored_count_[old * width + lane_];
        if (--count == 0) loop_->colored_bits_[old] &= ~bit;
      }
      if (c != kNoColor) {
        uint32_t& count = loop_->colored_count_[c * width + lane_];
        if (count++ == 0) loop_->colored_bits_[c] |= bit;
      }
    }
  }

  Round earliest_deadline(ColorId c) const final {
    RRS_CHECK(!run().rings[c].empty())
        << "earliest_deadline on idle color " << c;
    return run().rings[c].front_deadline();
  }

  // Compacts the nonidle list once per reconfiguration phase (the loop bumps
  // phase_epoch_ per phase). Amortized O(1) per idle transition.
  const std::vector<ColorId>& nonidle_colors() const final {
    RunState& run = this->run();
    if (seen_epoch_ != loop_->phase_epoch_) {
      size_t out = 0;
      for (size_t i = 0; i < run.nonidle_list.size(); ++i) {
        const ColorId c = run.nonidle_list[i];
        if (loop_->pending(c, lane_) != 0) {
          run.nonidle_list[out++] = c;
        } else {
          run.in_nonidle_list[c] = 0;
        }
      }
      run.nonidle_list.resize(out);
      seen_epoch_ = loop_->phase_epoch_;
    }
    return run.nonidle_list;
  }

 private:
  RunState& run() const { return loop_->run(lane_); }

  Loop* loop_ = nullptr;
  uint32_t lane_ = 0;
  mutable uint64_t seen_epoch_ = ~uint64_t{0};
};

template <class LaneSet, uint32_t kMaxWidth>
class RoundLoop {
 public:
  static constexpr bool kScalar = kMaxWidth == 1;
  static_assert(kMaxWidth >= 1 && kMaxWidth <= 64, "lane masks are 64-bit");

  // Wheel entries: (color, lane) above width 1, a bare color at width 1.
  struct LaneEntry {
    ColorId color;
    uint32_t lane;
  };
  using WheelEntry = std::conditional_t<kScalar, ColorId, LaneEntry>;
  static WheelEntry Entry(ColorId c, uint32_t lane) {
    if constexpr (kScalar) {
      return c;
    } else {
      return {c, lane};
    }
  }
  static ColorId ColorOf(ColorId c) { return c; }
  static ColorId ColorOf(const LaneEntry& e) { return e.color; }
  static uint32_t LaneOf(ColorId) { return 0; }
  static uint32_t LaneOf(const LaneEntry& e) { return e.lane; }
  using View = RunView<RoundLoop>;
  template <class T>
  using PerLane = std::conditional_t<kScalar, std::array<T, 1>, std::vector<T>>;

  explicit RoundLoop(uint32_t width = 1) : width_(width) {
    RRS_CHECK_GE(width, 1u);
    RRS_CHECK_LE(width, kMaxWidth);
    if constexpr (!kScalar) {
      runs_.resize(width);
      views_.resize(width);
    }
    for (uint32_t lane = 0; lane < width; ++lane) {
      views_[lane].Attach(this, lane);
    }
  }
  // Views point back at the loop.
  RoundLoop(const RoundLoop&) = delete;
  RoundLoop& operator=(const RoundLoop&) = delete;

  uint32_t width() const { return kScalar ? 1 : width_; }
  RunState& run(uint32_t lane) { return runs_[kScalar ? 0 : lane]; }
  const RunState& run(uint32_t lane) const { return runs_[kScalar ? 0 : lane]; }
  uint64_t& pending(ColorId c, uint32_t lane) {
    return pending_[static_cast<size_t>(c) * width() + (kScalar ? 0 : lane)];
  }
  uint64_t pending(ColorId c, uint32_t lane) const {
    return pending_[static_cast<size_t>(c) * width() + (kScalar ? 0 : lane)];
  }
  bool fused(uint32_t lane) const {
    return !kScalar && (fused_mask_ >> lane & 1) != 0;
  }

  // ---- Binding -----------------------------------------------------------

  // Sizes the shared tables for a shape: its color count, resource count,
  // mini-rounds and max delay bound. Above width 1 only legal while no lane
  // is open; the width-1 engine adopts its tenant's shape at every run.
  void AdoptShape(const Instance& shape, const EngineOptions& options) {
    num_colors_ = shape.num_colors();
    num_resources_ = options.num_resources;
    mini_rounds_ = options.mini_rounds_per_round;
    delay_bounds_.resize(num_colors_);
    max_delay_ = 1;
    for (ColorId c = 0; c < num_colors_; ++c) {
      delay_bounds_[c] = shape.delay_bound(c);
      max_delay_ = std::max(max_delay_, delay_bounds_[c]);
    }
    pending_.assign(num_colors_ * width(), 0);
    if constexpr (kScalar) {
      exec_count_.assign(num_colors_, 0);
      exec_touched_.clear();
      exec_touched_.reserve(num_colors_);
    } else {
      colored_count_.assign(num_colors_ * width(), 0);
      colored_bits_.assign(num_colors_, 0);
      backlog_bits_.assign(num_colors_, 0);
    }
    // The storage only grows, and holds no entry outside an open run.
    wheel_slots_ = static_cast<size_t>(max_delay_) + 1;
    if (wheel_.size() < wheel_slots_) wheel_.resize(wheel_slots_);
    for (View& view : views_) view.Rebind();
  }

  // Opens lane `lane` on a tenant of the adopted shape: binds it, clears all
  // per-run state and resets the policy. O(colors + resources) writes, zero
  // allocations once every buffer has grown to the shape.
  void OpenRun(uint32_t lane, const Instance& shape,
               workload::ArrivalSource& source, bool instance_fed,
               const EngineOptions& options, SchedulerPolicy& policy) {
    RunState& run = this->run(lane);
    run.instance = &shape;
    run.source = &source;
    run.instance_fed = instance_fed;
    run.policy = &policy;
    run.options = options;
    source.Reset();
    // The loop bounds come from the source: a jobless shape Instance
    // carries no horizon.
    run.horizon = source.horizon();
    run.request_rounds = source.num_request_rounds();
    run.wheel_size = static_cast<uint64_t>(max_delay_) + 1;
    run.schedule = nullptr;
    instruments_.Rebind(options.obs_scope, "engine");
    policy.Reset(shape, options);

    if (run.rings.size() < num_colors_) run.rings.resize(num_colors_);
    for (JobRing& ring : run.rings) ring.clear();
    // Pre-size each ring to the tenant's backlog bound so the round loop
    // never grows one mid-run: ring allocation happens here, at the tenant
    // boundary, and a reused session whose rings already fit performs none.
    uint32_t max_backlog_any = 0;
    for (ColorId c = 0; c < num_colors_; ++c) {
      const uint32_t bound = source.max_backlog(c);
      run.rings[c].Reserve(bound);
      max_backlog_any = std::max(max_backlog_any, bound);
    }
    // A wrapped drop span copies at most one color's whole backlog.
    dropped_scratch_.reserve(max_backlog_any);
    // The lane's pending, backlog and colored columns are already zero:
    // AdoptShape zeroes them all, and CloseRun scrubs a closed lane's.
    run.resource_color.assign(num_resources_, kNoColor);
    run.nonidle_list.clear();
    run.nonidle_list.reserve(num_colors_);
    run.in_nonidle_list.assign(num_colors_, 0);
    run.last_wheel_push.assign(num_colors_, -1);
    run.cost = CostBreakdown{};
    run.executed = 0;
    run.arrived = 0;
    run.drops_per_color.assign(num_colors_, 0);
#if RRS_OBS_LEVEL >= 1
    run.reconfigs_per_color.assign(num_colors_, 0);
#endif
  }

  // Releases lane `lane`. A run closed before its horizon (an abort) leaves
  // wheel entries behind, which are scrubbed, so the wheel holds only open
  // runs' entries. Above width 1 the lane's pending, backlog and colored
  // columns are zeroed for the next lane open; at width 1 the next run's
  // AdoptShape does that.
  void CloseRun(uint32_t lane) {
    RunState& run = this->run(lane);
    if (next_round_ <= run.horizon) {
      for (auto& slot : wheel_) {
        if constexpr (kScalar) {
          slot.clear();
        } else {
          std::erase_if(slot, [lane](const LaneEntry& e) {
            return e.lane == lane;
          });
        }
      }
    }
    if constexpr (!kScalar) {
      const uint64_t clear = ~(uint64_t{1} << lane);
      for (size_t c = 0; c < num_colors_; ++c) {
        pending_[c * width_ + lane] = 0;
        backlog_bits_[c] &= clear;
        colored_count_[c * width_ + lane] = 0;
        colored_bits_[c] &= clear;
      }
    }
    run.policy = nullptr;
    run.instance = nullptr;
    run.source = nullptr;
    run.schedule = nullptr;
  }

  // ---- The round ---------------------------------------------------------

  // Simulates round k for the lanes in `stepping`; the arrival phase runs
  // for `arriving` ⊆ stepping. At width 1 both masks are 1, and phase wall
  // times are sampled into the run's obs scope (every round when tracing;
  // with no scope attached, one dead branch per round). Lanes above width 1
  // are not timed.
  void PlayRound(Round k, uint64_t stepping, uint64_t arriving) {
    const bool sampled = kScalar && instruments_.ShouldSample(k);
    uint64_t t0 = sampled ? obs::NowNs() : 0;
    auto lap = [&](int phase) {
      if (sampled) {
        const uint64_t t = obs::NowNs();
        instruments_.RecordPhase(phase, k, t0, t);
        t0 = t;
      }
    };
    round_slot_ = SlotOf(k);
    DropPhase(k, stepping);
    lap(obs::kPhaseDrop);
    ArrivalPhase(k, arriving);
    lap(obs::kPhaseArrival);
    for (int mini = 0; mini < mini_rounds_; ++mini) {
      ReconfigurePhase(k, mini, stepping);
      lap(obs::kPhaseReconfig);
      ExecutePhase(k, mini, stepping);
      lap(obs::kPhaseExecute);
    }
  }

  // Closes a StepRounds call: the loop's round becomes last + 1, and
  // instance-fed sources (whose cursor the inline arrival loop does not
  // move) are re-synced to it, so snapshots and SeekRound-based restores see
  // a consistent source. O(1) per InstanceSource.
  void EndStep(Round last, uint64_t open) {
    next_round_ = last + 1;
    for (uint64_t m = Lanes(open); m != 0; m &= m - 1) {
      RunState& run = this->run(Lowest(m));
      if (run.instance_fed) run.source->SeekRound(next_round_);
    }
  }

  // ---- Result fill -------------------------------------------------------

  // Fills `result` for lane `lane`, which must have passed its horizon.
  void FillResult(uint32_t lane, RunResult& result) {
    RunState& run = this->run(lane);
    result.cost = run.cost;
    result.executed = run.executed;
    result.arrived = run.arrived;
    result.rounds_simulated = run.horizon + 1;
    result.drops_per_color = run.drops_per_color;
    // Every job must have been executed or dropped by the horizon.
    RRS_CHECK_EQ(result.executed + result.cost.drops, result.arrived)
        << "engine accounting mismatch";
#if RRS_OBS_LEVEL >= 1
    FinalizeRunTelemetry(*run.policy, instruments_, run.reconfigs_per_color,
                         result);
#else
    FinalizeRunTelemetry(*run.policy, instruments_, {}, result);
#endif
    if (run.schedule != nullptr) {
      result.schedule = std::move(*run.schedule);
      run.schedule = nullptr;
    } else {
      result.schedule.reset();
    }
  }

  // ---- Checkpoint codec: the engine section --------------------------------

  // Writes lane `lane`'s engine section at the loop's round, then its
  // policy's state. The wheel is written in the run's own layout
  // (run.wheel_size slots, deadline d in slot d mod wheel_size), whatever
  // the live wheel's size or sharing, so the words depend only on the run:
  // a lane matches a scalar session, and a reused session matches a fresh
  // one.
  void SnapshotRun(uint32_t lane, snapshot::Writer& w) const {
    const RunState& run = this->run(lane);
    const Round k = next_round_;
    w.BeginSection(snapshot::kTagEngine);
    // Shape words: restore must target an equal-shaped session.
    w.PutU64(num_colors_);
    w.PutU32(num_resources_);
    w.PutI64(k);
    w.PutVec(run.resource_color);
    for (ColorId c = 0; c < num_colors_; ++c) run.rings[c].SaveState(w);
    w.PutU64(num_colors_);
    for (ColorId c = 0; c < num_colors_; ++c) w.PutU64(pending(c, lane));
    w.PutVec(run.nonidle_list);
    w.PutVec(run.in_nonidle_list);
    // The wheel, remapped to the run's own wheel_size. Live deadlines lie in
    // [k, k + max D - 1], whose residues are unique both mod the live wheel
    // and mod wheel_size, and per-slot order is push order — the scalar push
    // order, also on a shared slab wheel. A fresh run's wheel_size is the
    // live size, so the remap is the identity.
    w.PutU64(run.wheel_size);
    const uint64_t kw = static_cast<uint64_t>(k) % run.wheel_size;
    const size_t slot_k = SlotOf(k);
    auto mine = [lane](const WheelEntry& e) { return LaneOf(e) == lane; };
    for (uint64_t j = 0; j < run.wheel_size; ++j) {
      const size_t offset = Offset(j, kw, run.wheel_size);
      if (offset >= static_cast<size_t>(max_delay_)) {
        w.PutU64(0);
        continue;
      }
      const auto& slot = wheel_[LiveSlot(slot_k, offset)];
      w.PutU64(std::count_if(slot.begin(), slot.end(), mine));
      for (const WheelEntry& e : slot) {
        if (mine(e)) w.PutU32(ColorOf(e));
      }
    }
    w.PutVec(run.last_wheel_push);
    w.PutU64(run.cost.reconfigurations);
    w.PutU64(run.cost.drops);
    w.PutU64(run.cost.weighted_drops);
    w.PutU64(run.executed);
    w.PutVec(run.drops_per_color);
#if RRS_OBS_LEVEL >= 1
    w.PutBool(true);
    w.PutVec(run.reconfigs_per_color);
#else
    w.PutBool(false);
#endif
    w.EndSection();

    // A fused lane's policy state lives partly in the kernel during a run;
    // flush it so the policy serializes the bytes a scalar session would.
    if constexpr (!kScalar) {
      if (fused(lane)) self().FusedFlush(lane);
    }
    run.policy->SaveState(w);
  }

  // The inverse, on a lane just opened (OpenRun) against an equal instance
  // and options: overwrites its state from an engine section, loads the
  // policy's state and repositions the source, from `source_state` (the
  // source's own saved words) when given, else by SeekRound replay. With
  // `adopt_round` the loop takes the checkpoint's round; otherwise the
  // checkpoint must be at the loop's round.
  //
  // Checkpoints can arrive from another process, so every value the round
  // loop later trusts is checked here: shapes, every per-color index, ring
  // deadlines (in order, live, and armed in the wheel), the nonidle list
  // against its flags, wheel entries (in the live window and within the
  // horizon) and the wheel push markers.
  void RestoreRun(uint32_t lane, snapshot::Reader& r,
                  snapshot::Reader* source_state, bool adopt_round) {
    RunState& run = this->run(lane);
    const size_t num_colors = num_colors_;

    r.BeginSection(snapshot::kTagEngine);
    RRS_CHECK_EQ(r.GetU64(), num_colors)
        << "snapshot restored against a different color universe";
    RRS_CHECK_EQ(r.GetU32(), num_resources_)
        << "snapshot restored with a different resource count";
    const Round k = r.GetI64();
    RRS_CHECK_GE(k, 0) << "snapshot round is negative";
    RRS_CHECK_LE(k, run.horizon + 1);
    if (adopt_round) {
      next_round_ = k;
    } else {
      RRS_CHECK_EQ(k, next_round_)
          << "lane snapshot from a different round than the slab";
    }

    r.GetVec(run.resource_color);
    RRS_CHECK_EQ(run.resource_color.size(), num_resources_);
    for (const ColorId c : run.resource_color) {
      RRS_CHECK(c == kNoColor || c < num_colors)
          << "snapshot resource color " << c << " out of range";
      if constexpr (!kScalar) {
        if (c != kNoColor && colored_count_[c * width() + lane]++ == 0) {
          colored_bits_[c] |= uint64_t{1} << lane;
        }
      }
    }

    // pending_deadlines_ and armed_ get one bit per (color, deadline d - k):
    // the rings' deadlines here, the wheel's below.
    const size_t words = (static_cast<size_t>(max_delay_) + 63) / 64;
    pending_deadlines_.assign(num_colors * words, 0);
    armed_.assign(num_colors * words, 0);
    for (ColorId c = 0; c < num_colors; ++c) {
      // A pending color-c job at round k expires in [k, k + D_c - 1], and
      // FIFO order is deadline order (the drop phase only tests the front).
      JobRing& ring = run.rings[c];
      ring.LoadState(r);
      const Round end = k + delay_bounds_[c];
      Round prev = k;
      for (uint32_t i = 0; i < ring.size(); ++i) {
        const Round d = ring.deadline_at(i);
        RRS_CHECK(d >= prev && d < end)
            << "snapshot ring deadline " << d << " of color " << c
            << " out of order or outside [" << k << ", " << end << ")";
        prev = d;
        const size_t bit = static_cast<size_t>(d - k);
        pending_deadlines_[c * words + bit / 64] |= uint64_t{1} << (bit % 64);
      }
      pending(c, lane) = ring.size();
      if constexpr (!kScalar) {
        if (!ring.empty()) backlog_bits_[c] |= uint64_t{1} << lane;
      }
    }
    RRS_CHECK_EQ(r.GetU64(), num_colors);
    for (ColorId c = 0; c < num_colors; ++c) {
      RRS_CHECK_EQ(r.GetU64(), pending(c, lane))
          << "snapshot pending count disagrees with ring contents for color "
          << c;
    }
    // The nonidle list and its flags must agree, or a color with jobs could
    // miss every reconfiguration phase: flags are 0 or 1, a color with jobs
    // is flagged, as many colors are flagged as listed, and each listed
    // color is in range, flagged and listed once.
    r.GetVec(run.nonidle_list);
    r.GetVec(run.in_nonidle_list);
    RRS_CHECK_EQ(run.in_nonidle_list.size(), num_colors);
    size_t flagged = 0;
    for (ColorId c = 0; c < num_colors; ++c) {
      const uint8_t flag = run.in_nonidle_list[c];
      RRS_CHECK(flag <= 1) << "snapshot nonidle flag of color " << c
                           << " is neither 0 nor 1";
      RRS_CHECK(flag == 1 || pending(c, lane) == 0)
          << "snapshot nonidle flag missing for pending color " << c;
      flagged += flag;
    }
    RRS_CHECK_EQ(run.nonidle_list.size(), flagged)
        << "snapshot nonidle list disagrees with its flags";
    for (const ColorId c : run.nonidle_list) {
      RRS_CHECK_LT(c, num_colors) << "snapshot nonidle color out of range";
      RRS_CHECK_EQ(run.in_nonidle_list[c], 1)
          << "snapshot nonidle color " << c << " unflagged or listed twice";
      run.in_nonidle_list[c] = 2;
    }
    for (const ColorId c : run.nonidle_list) run.in_nonidle_list[c] = 1;

    // A deadline lies at most max D rounds ahead, so the wheel needs more
    // than max D slots; each slot takes at least its count word.
    const uint64_t size = r.GetU64();
    RRS_CHECK_GT(size, static_cast<uint64_t>(max_delay_))
        << "snapshot wheel smaller than max delay bound + 1";
    RRS_CHECK_LE(size, r.remaining()) << "snapshot wheel overruns section";
    run.wheel_size = size;
    const size_t slot_k = SlotOf(k);
    const uint64_t kw = static_cast<uint64_t>(k) % size;
    for (uint64_t j = 0; j < size; ++j) {
      const size_t offset = Offset(j, kw, size);
      r.GetVec(slot_scratch_);
      if (slot_scratch_.empty()) continue;
      RRS_CHECK_LT(offset, static_cast<size_t>(max_delay_))
          << "snapshot wheel entry outside the live deadline window";
      RRS_CHECK_LE(k + static_cast<Round>(offset), run.horizon)
          << "snapshot wheel entry past the horizon";
      auto& slot = wheel_[LiveSlot(slot_k, offset)];
      for (const ColorId c : slot_scratch_) {
        RRS_CHECK_LT(c, num_colors) << "snapshot wheel color out of range";
        armed_[c * words + offset / 64] |= uint64_t{1} << (offset % 64);
        slot.push_back(Entry(c, lane));
      }
    }

    r.GetVec(run.last_wheel_push);
    RRS_CHECK_EQ(run.last_wheel_push.size(), num_colors);
    for (ColorId c = 0; c < num_colors; ++c) {
      // Every pending deadline must be armed in the wheel, or the drop
      // phase's test deadline == k never expires the job, nor any job queued
      // behind it.
      for (size_t i = c * words; i < (c + 1) * words; ++i) {
        RRS_CHECK_EQ(pending_deadlines_[i] & ~armed_[i], 0u)
            << "snapshot ring deadline of color " << c
            << " is not armed in the wheel";
      }
      // The next push of color c is for a deadline of at least k + D_c; a
      // marker at or past it would leave that deadline unarmed.
      RRS_CHECK_LT(run.last_wheel_push[c], k + delay_bounds_[c])
          << "snapshot wheel push marker of color " << c << " ahead of round";
    }
    run.cost.reconfigurations = r.GetU64();
    run.cost.drops = r.GetU64();
    run.cost.weighted_drops = r.GetU64();
    run.executed = r.GetU64();
    r.GetVec(run.drops_per_color);
    RRS_CHECK_EQ(run.drops_per_color.size(), num_colors);
    const bool obs_fields = r.GetBool();
#if RRS_OBS_LEVEL >= 1
    RRS_CHECK(obs_fields)
        << "snapshot from an RRS_OBS_LEVEL=0 build lacks telemetry state";
    r.GetVec(run.reconfigs_per_color);
    RRS_CHECK_EQ(run.reconfigs_per_color.size(), num_colors);
#else
    RRS_CHECK(!obs_fields)
        << "snapshot carries telemetry state this RRS_OBS_LEVEL=0 build drops";
#endif
    r.EndSection();

    // The section has no arrival counter (its byte format predates
    // streaming sources), but every arrived job is executed, dropped, or
    // pending — and ids are dense — so the count is derivable.
    uint64_t pending_total = 0;
    for (ColorId c = 0; c < num_colors; ++c) pending_total += pending(c, lane);
    run.arrived = run.executed + run.cost.drops + pending_total;

    run.policy->LoadState(r);

    if (source_state != nullptr) {
      run.source->LoadState(*source_state);
      RRS_CHECK_EQ(run.source->cursor(), std::min(k, run.request_rounds))
          << "restored source state disagrees with the engine round";
    } else {
      run.source->SeekRound(k);
    }
  }

  // ---- Shared state (the lane set reads it; RunView reads it) ------------

  uint32_t width_ = 1;
  PerLane<RunState> runs_;
  PerLane<View> views_;
  Round next_round_ = 0;

  // Adopted shape (one delay table, however many lanes share it).
  size_t num_colors_ = 0;
  uint32_t num_resources_ = 0;
  int mini_rounds_ = 1;
  std::vector<Round> delay_bounds_;
  Round max_delay_ = 1;

  // Per-color pending counts, [color * width + lane] (== the lane's ring
  // size), exported to policies through ResourceView's strided fast path.
  std::vector<uint64_t> pending_;
  // Timing wheel (see the file comment): wheel_slots_ live slots, the
  // current round's at round_slot_.
  std::vector<std::vector<WheelEntry>> wheel_;
  size_t wheel_slots_ = 1;
  size_t round_slot_ = 0;

  // Width 1: execution-phase resource histogram and its touched colors.
  std::vector<uint32_t> exec_count_;
  std::vector<ColorId> exec_touched_;
  // Above width 1: lanes routed to the lane set's fused kernel; resources
  // per (color, lane); lanes with a resource of the color; lanes with
  // pending jobs of the color. Execution intersects the last two, so
  // drained (color, lane) pairs cost nothing.
  uint64_t fused_mask_ = 0;
  std::vector<uint32_t> colored_count_;
  std::vector<uint64_t> colored_bits_;
  std::vector<uint64_t> backlog_bits_;

  // The reconfiguration phase being played (views compact their nonidle
  // list once per epoch; the width-1 view stamps recolors with the round).
  uint64_t phase_epoch_ = 0;
  Round phase_round_ = 0;
  int phase_mini_ = 0;

  // One instruments block per loop. Lanes above width 1 never record a
  // phase sample (no per-run obs scope), so each lane open rebinds this one
  // and each lane finish folds it.
  obs::RunInstruments instruments_;

  std::vector<JobId> dropped_scratch_;  // wrapped drop spans only
  std::vector<ColorId> slot_scratch_;   // restore: one checkpoint slot
  // Restore: (color, deadline) bitsets of pending jobs and wheel entries.
  std::vector<uint64_t> pending_deadlines_;
  std::vector<uint64_t> armed_;

 private:
  LaneSet& self() { return static_cast<LaneSet&>(*this); }
  const LaneSet& self() const { return static_cast<const LaneSet&>(*this); }

  size_t SlotOf(Round d) const {
    return static_cast<size_t>(d % static_cast<Round>(wheel_slots_));
  }

  // Slot j of a `size`-slot checkpoint wheel at round k, with kw = k mod
  // size, holds the deadline k + Offset(j, kw, size).
  static size_t Offset(uint64_t j, uint64_t kw, uint64_t size) {
    return static_cast<size_t>(j >= kw ? j - kw : j + size - kw);
  }
  // The live slot of the deadline `offset` (< max D + 1) rounds after the
  // round whose slot is slot_k.
  size_t LiveSlot(size_t slot_k, size_t offset) const {
    const size_t slot = slot_k + offset;
    return slot >= wheel_slots_ ? slot - wheel_slots_ : slot;
  }

  // Lane sets are walked as `for (m = Lanes(mask); m; m &= m - 1)` with
  // lane Lowest(m); at width 1 the walk is lane 0, once.
  static uint64_t Lanes(uint64_t mask) { return kScalar ? 1 : mask; }
  static uint32_t Lowest(uint64_t m) {
    return kScalar ? 0 : static_cast<uint32_t>(std::countr_zero(m));
  }

  // Appends round k's `count` color-c jobs to lane `lane`: consecutive ids,
  // the deadline k + D_c armed in the wheel, then the policy callback.
  // Forced inline: it runs once per arrival run from two loops, and an
  // out-of-line call per run costs the arrival-bound cells a few percent.
  [[gnu::always_inline]] void AddRun(uint32_t lane, RunState& run, Round k,
                                     ColorId c, uint64_t count) {
    const Round delay = delay_bounds_[c];
    const Round deadline = k + delay;
    RRS_CHECK_LE(deadline, run.horizon);
    uint64_t& pend = pending(c, lane);
    if (pend == 0 && !run.in_nonidle_list[c]) {
      run.in_nonidle_list[c] = 1;
      run.nonidle_list.push_back(c);
    }
    run.rings[c].push_run(static_cast<JobId>(run.arrived), deadline,
                          static_cast<uint32_t>(count));
    run.arrived += count;
    pend += count;
    if constexpr (!kScalar) backlog_bits_[c] |= uint64_t{1} << lane;
    if (run.last_wheel_push[c] != deadline) {
      run.last_wheel_push[c] = deadline;
      wheel_[LiveSlot(round_slot_, static_cast<size_t>(delay))].push_back(
          Entry(c, lane));
    }
    if constexpr (!kScalar) {
      if (fused(lane)) {
        self().FusedArrivals(lane, k, c, count);
        return;
      }
    }
    run.policy->OnArrivals(k, c, count);
  }

  // ---- Drop phase: jobs with deadline == k are dropped. -----------------
  // Every entry of slot k belongs to a stepping lane: runs place deadlines
  // within their horizon, and closed runs are scrubbed.
  void DropPhase(Round k, uint64_t stepping) {
    auto& slot = wheel_[round_slot_];
    if (!slot.empty()) {
      for (const WheelEntry& e : slot) {
        const uint32_t lane = LaneOf(e);
        const ColorId c = ColorOf(e);
        RunState& run = this->run(lane);
        JobRing& ring = run.rings[c];
        uint32_t n = 0;
        const uint32_t size = ring.size();
        while (n < size && ring.deadline_at(n) == k) ++n;
        if (n == 0) continue;
        run.cost.drops += n;
        run.cost.weighted_drops += n * run.instance->drop_cost(c);
        run.drops_per_color[c] += n;
        if (fused(lane)) {
          // Fused lanes never collect dropped ids, so the span is not built.
          if constexpr (!kScalar) self().FusedDropped(lane, k, c, n);
        } else {
          std::span<const JobId> jobs;
          if (ring.front_contiguous(n)) {
            jobs = std::span<const JobId>(ring.front_ptr(), n);
          } else {
            dropped_scratch_.clear();
            for (uint32_t i = 0; i < n; ++i) {
              dropped_scratch_.push_back(ring.job_at(i));
            }
            jobs = dropped_scratch_;
          }
          run.policy->OnJobsDropped(k, c, n, jobs);
        }
        ring.pop_n(n);
        uint64_t& pend = pending(c, lane);
        pend -= n;
        if constexpr (!kScalar) {
          if (pend == 0) backlog_bits_[c] &= ~(uint64_t{1} << lane);
        }
      }
      slot.clear();
    }
    if constexpr (!kScalar) self().FusedAfterDrop(k, stepping & fused_mask_);
    for (uint64_t m = Lanes(stepping & ~fused_mask_); m != 0; m &= m - 1) {
      run(Lowest(m)).policy->AfterDropPhase(k);
    }
  }

  // ---- Arrival phase: request k, pulled from each lane's source. --------
  // Every round below the request horizon pulls (even all-idle ones), so
  // the source cursor tracks the simulated round. Runs arrive grouped per
  // color; ids are assigned consecutively in emission order, matching the
  // materialized JobIds.
  //
  // Instance-fed runs take the inline loop over the job vector instead of
  // InstanceSource::NextRound: same coalescing, same ids, but no per-round
  // run-vector rebuild or virtual dispatch. Arrival-bound cells pay ~15%
  // for the indirection; EndStep re-syncs the cursor.
  void ArrivalPhase(Round k, uint64_t arriving) {
    for (uint64_t m = Lanes(arriving); m != 0; m &= m - 1) {
      const uint32_t lane = Lowest(m);
      RunState& run = this->run(lane);
      if (k < run.request_rounds) {
        if (run.instance_fed) {
          const auto arrivals = run.instance->jobs_in_round(k);
          size_t i = 0;
          while (i < arrivals.size()) {
            const ColorId c = arrivals[i].color;
            size_t j = i;
            while (j < arrivals.size() && arrivals[j].color == c) ++j;
            AddRun(lane, run, k, c, j - i);
            i = j;
          }
        } else {
          RRS_DCHECK(run.source->cursor() == k);
          for (const auto& [c, count] : run.source->NextRound()) {
            if (count != 0) AddRun(lane, run, k, c, count);
          }
        }
      }
      // The fused kernel has no AfterArrivalPhase hook (ΔLRU-EDF does not
      // override it).
      if (!fused(lane)) run.policy->AfterArrivalPhase(k);
    }
  }

  // ---- Reconfiguration phase of mini-round (k, mini). -------------------
  void ReconfigurePhase(Round k, int mini, uint64_t stepping) {
    ++phase_epoch_;
    phase_round_ = k;
    phase_mini_ = mini;
    for (uint64_t m = Lanes(stepping & ~fused_mask_); m != 0; m &= m - 1) {
      const uint32_t lane = Lowest(m);
      run(lane).policy->Reconfigure(k, mini, views_[lane]);
    }
    if constexpr (!kScalar) {
      self().FusedReconfigure(k, mini, stepping & fused_mask_);
    }
  }

  // ---- Execution phase: each resource runs one earliest-deadline pending
  // job of its color. Each of a color's R resources in a lane executes one
  // of its P earliest pending jobs: min(R, P) in total.
  void ExecutePhase(Round k, int mini, uint64_t stepping) {
    if constexpr (kScalar) {
      (void)stepping;
      RunState& run = runs_[0];
      const uint32_t num_resources = num_resources_;
      if (run.schedule == nullptr) {
        // Count resources per color once, then bulk-advance each color's
        // ring: one pass over resource_color plus one touch per active
        // color.
        exec_touched_.clear();
        for (ResourceId r = 0; r < num_resources; ++r) {
          const ColorId c = run.resource_color[r];
          if (c == kNoColor) continue;
          if (exec_count_[c]++ == 0) exec_touched_.push_back(c);
        }
        for (const ColorId c : exec_touched_) {
          const uint64_t take = std::min<uint64_t>(exec_count_[c], pending_[c]);
          exec_count_[c] = 0;
          run.rings[c].pop_n(static_cast<uint32_t>(take));
          pending_[c] -= take;
          run.executed += take;
        }
      } else {
        // Recording: per-resource pops, so each execution is attributed to
        // its resource in resource order (the validator's expectation).
        for (ResourceId r = 0; r < num_resources; ++r) {
          const ColorId c = run.resource_color[r];
          if (c == kNoColor) continue;
          JobRing& ring = run.rings[c];
          if (ring.empty()) continue;
          const JobId job = ring.front_job();
          ring.pop_n(1);
          --pending_[c];
          ++run.executed;
          run.schedule->AddExecution(k, mini, r, job);
        }
      }
    } else {
      (void)k;
      (void)mini;
      // Masked walk over colors: the lanes with both resources of the color
      // and a backlog take ≥ 1.
      for (size_t c = 0; c < num_colors_; ++c) {
        uint64_t m = colored_bits_[c] & backlog_bits_[c] & stepping;
        if (m == 0) continue;
        const size_t base = c * width_;
        for (; m != 0; m &= m - 1) {
          const uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
          uint64_t& pend = pending_[base + lane];
          const uint64_t take =
              std::min<uint64_t>(colored_count_[base + lane], pend);
          RunState& run = runs_[lane];
          run.rings[c].pop_n(static_cast<uint32_t>(take));
          pend -= take;
          if (pend == 0) backlog_bits_[c] &= ~(uint64_t{1} << lane);
          run.executed += take;
        }
      }
    }
  }
};

}  // namespace internal
}  // namespace rrs
