#include "fleet/batch_engine.h"

#include <algorithm>
#include <bit>
#include <typeinfo>

#include "core/round_loop.h"
#include "sched/lane_kernels.h"
#include "util/check.h"

namespace rrs {
namespace fleet {

static_assert(BatchEngine::kMaxLanes == DlruEdfLaneKernel::kMaxLanes);

// The slab's lane set: the round loop of up to kMaxLanes lanes, plus the
// fused ΔLRU-EDF kernel the loop routes fused_mask_ lanes to, the adopted
// shape's Δ (LaneCompatible) and the lanes' own InstanceSource adapters.
struct BatchEngine::Slab final
    : internal::RoundLoop<BatchEngine::Slab, BatchEngine::kMaxLanes> {
  explicit Slab(uint32_t width)
      : RoundLoop(width), own_sources(width), view_ptrs(width) {
    for (uint32_t lane = 0; lane < width; ++lane) {
      view_ptrs[lane] = &views_[lane];
    }
  }

  void FusedDropped(uint32_t lane, Round k, ColorId c, uint64_t count) {
    kernel.OnJobsDropped(lane, k, c, count);
  }
  void FusedAfterDrop(Round k, uint64_t mask) {
    kernel.AfterDropPhase(k, mask);
  }
  void FusedArrivals(uint32_t lane, Round k, ColorId c, uint64_t count) {
    kernel.OnArrivals(lane, k, c, count);
  }
  void FusedReconfigure(Round k, int mini, uint64_t mask) {
    kernel.Reconfigure(k, mini, mask, view_ptrs.data());
  }
  void FusedFlush(uint32_t lane) const { kernel.FlushDeadlines(lane); }

  DlruEdfLaneKernel kernel;
  uint64_t delta = 1;
  std::vector<workload::InstanceSource> own_sources;
  std::vector<ResourceView*> view_ptrs;
};

BatchEngine::BatchEngine(uint32_t width)
    : width_(width), slab_(std::make_unique<Slab>(width)) {}

BatchEngine::~BatchEngine() = default;

Round BatchEngine::next_round() const { return slab_->next_round_; }

bool BatchEngine::lane_done(uint32_t lane) const {
  return lane_open(lane) && slab_->next_round_ > slab_->run(lane).horizon;
}

bool BatchEngine::LaneCompatible(const Instance& instance,
                                 const EngineOptions& options) const {
  if (options.record_schedule || options.obs_scope != nullptr) return false;
  if (options.num_resources < 1 || options.mini_rounds_per_round < 1 ||
      options.cost_model.delta < 1) {
    return false;
  }
  if (open_mask_ == 0) return true;  // an empty slab adopts any shape
  const Slab& s = *slab_;
  if (instance.num_colors() != s.num_colors_ ||
      options.num_resources != s.num_resources_ ||
      options.mini_rounds_per_round != s.mini_rounds_ ||
      options.cost_model.delta != s.delta) {
    return false;
  }
  for (ColorId c = 0; c < s.num_colors_; ++c) {
    if (instance.delay_bound(c) != s.delay_bounds_[c]) return false;
  }
  return true;
}

void BatchEngine::OpenLane(uint32_t lane, const Instance& instance,
                           const EngineOptions& options,
                           SchedulerPolicy& policy) {
  Open(lane, instance, nullptr, options, policy, nullptr, nullptr);
}

void BatchEngine::OpenLane(uint32_t lane, workload::ArrivalSource& source,
                           const EngineOptions& options,
                           SchedulerPolicy& policy) {
  Open(lane, source.shape(), &source, options, policy, nullptr, nullptr);
}

void BatchEngine::RestoreLane(uint32_t lane, const Instance& instance,
                              const EngineOptions& options,
                              SchedulerPolicy& policy, snapshot::Reader& r) {
  Open(lane, instance, nullptr, options, policy, &r, nullptr);
}

void BatchEngine::RestoreLane(uint32_t lane, workload::ArrivalSource& source,
                              const EngineOptions& options,
                              SchedulerPolicy& policy, snapshot::Reader& r,
                              snapshot::Reader* source_state) {
  Open(lane, source.shape(), &source, options, policy, &r, source_state);
}

void BatchEngine::Open(uint32_t lane, const Instance& shape,
                       workload::ArrivalSource* source,
                       const EngineOptions& options, SchedulerPolicy& policy,
                       snapshot::Reader* r, snapshot::Reader* source_state) {
  RRS_CHECK_LT(lane, width_);
  RRS_CHECK(!lane_open(lane)) << "lane " << lane << " is already open";
  // All lanes step in lock-step; a restored lane joins at the slab's round.
  RRS_CHECK(r != nullptr || next_round() == 0)
      << "OpenLane into a stepped slab";
  RRS_CHECK(LaneCompatible(shape, options))
      << "tenant incompatible with the slab shape";
  Slab& s = *slab_;
  const bool first = open_mask_ == 0;
  if (first) {
    s.AdoptShape(shape, options);
    s.delta = options.cost_model.delta;
    s.kernel.SetShape(s.num_colors_, width_, s.backlog_bits_.data());
  }
  const bool instance_fed = source == nullptr;
  if (instance_fed) {
    s.own_sources[lane].Bind(shape);
    source = &s.own_sources[lane];
  }
  s.OpenRun(lane, shape, *source, instance_fed, options, policy);
  if (r != nullptr) s.RestoreRun(lane, *r, source_state, first);

  const uint64_t bit = uint64_t{1} << lane;
  open_mask_ |= bit;
  if (typeid(policy) == typeid(DlruEdfPolicy) &&
      !static_cast<DlruEdfPolicy&>(policy).collect_ineligible_jobs()) {
    s.fused_mask_ |= bit;
    s.kernel.BindLane(lane, static_cast<DlruEdfPolicy*>(&policy));
    ++fused_lane_opens_;
  } else {
    ++generic_lane_opens_;
  }
}

bool BatchEngine::StepRounds(Round max_rounds) {
  RRS_CHECK(open_mask_ != 0) << "StepRounds on an empty slab";
  RRS_CHECK_GE(max_rounds, 1);
  Slab& s = *slab_;
  const Round next = s.next_round_;
  Round max_horizon = -1;
  for (uint64_t m = open_mask_; m != 0; m &= m - 1) {
    const uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
    max_horizon = std::max(max_horizon, s.run(lane).horizon);
  }
  if (next > max_horizon) return false;
  // Overflow-safe "min(max_horizon, next + max - 1)".
  const Round last = (max_rounds - 1 >= max_horizon - next)
                         ? max_horizon
                         : next + max_rounds - 1;

  // The stepping lanes (horizon not passed) and, of those, the arriving
  // ones: a fused lane past its last arrival round skips the arrival phase,
  // whose body is then a no-op and whose AfterArrivalPhase hook ΔLRU-EDF
  // does not override. Generic lanes always run it — an arbitrary policy
  // may act on the empty phase. Both masks only thin, and are rebuilt once
  // the round passes the earliest bound they were built with.
  uint64_t stepping = 0;
  uint64_t arriving = 0;
  Round valid_through = -1;
  for (Round k = next; k <= last; ++k) {
    if (k > valid_through) {
      stepping = arriving = 0;
      valid_through = max_horizon;
      for (uint64_t m = open_mask_; m != 0; m &= m - 1) {
        const uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
        const internal::RunState& run = s.run(lane);
        if (run.horizon < k) continue;
        const uint64_t bit = uint64_t{1} << lane;
        stepping |= bit;
        valid_through = std::min(valid_through, run.horizon);
        if (!s.fused(lane)) {
          arriving |= bit;
        } else if (k < run.request_rounds) {
          arriving |= bit;
          valid_through = std::min(valid_through, run.request_rounds - 1);
        }
      }
    }
    lane_rounds_ += static_cast<uint64_t>(std::popcount(stepping));
    ++slab_rounds_;
    s.PlayRound(k, stepping, arriving);
  }
  s.EndStep(last, open_mask_);
  return last < max_horizon;
}

void BatchEngine::FinishLane(uint32_t lane, RunResult& result) {
  RRS_CHECK_LT(lane, width_);
  RRS_CHECK(lane_done(lane)) << "FinishLane before the lane's horizon";
  slab_->FillResult(lane, result);
  CloseLane(lane);
}

const CostBreakdown& BatchEngine::lane_cost(uint32_t lane) const {
  RRS_CHECK(lane_open(lane)) << "lane_cost on a free lane";
  return slab_->run(lane).cost;
}

Round BatchEngine::lane_rounds(uint32_t lane) const {
  RRS_CHECK(lane_open(lane)) << "lane_rounds on a free lane";
  return std::min(slab_->next_round_, slab_->run(lane).horizon + 1);
}

void BatchEngine::AbortLane(uint32_t lane) {
  RRS_CHECK_LT(lane, width_);
  RRS_CHECK(lane_open(lane)) << "AbortLane on a free lane";
  CloseLane(lane);
}

void BatchEngine::CloseLane(uint32_t lane) {
  Slab& s = *slab_;
  const uint64_t bit = uint64_t{1} << lane;
  if (s.fused(lane)) s.kernel.UnbindLane(lane);
  open_mask_ &= ~bit;
  s.fused_mask_ &= ~bit;
  s.CloseRun(lane);
  // Last lane out: the slab restarts at round 0 (the wheel is already
  // empty: finished lanes consumed their entries, aborted ones were
  // scrubbed).
  if (open_mask_ == 0) s.next_round_ = 0;
}

void BatchEngine::SnapshotLane(uint32_t lane, snapshot::Writer& w) const {
  RRS_CHECK_LT(lane, width_);
  RRS_CHECK(lane_open(lane)) << "SnapshotLane on a free lane";
  slab_->SnapshotRun(lane, w);
}

}  // namespace fleet
}  // namespace rrs
