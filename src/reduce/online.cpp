#include "reduce/online.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "reduce/varbatch.h"
#include "util/check.h"
#include "workload/arrival_source.h"

namespace rrs {
namespace reduce {

// The engine's arrival source: serves the subcolor runs Step staged for the
// round being stepped. It has no end — request rounds and horizon sit at
// max / 2, so the engine never closes the run and neither horizon + 1 nor
// k + D can overflow — and no backlog bound, so rings grow on demand.
class OnlineSolver::PushSource final : public workload::ArrivalSource {
 public:
  explicit PushSource(Instance shape) : shape_(std::move(shape)) {
    request_rounds_ = std::numeric_limits<Round>::max() / 2;
    horizon_ = request_rounds_;
  }

  Family family() const override { return Family::kPush; }
  const Instance& shape() const override { return shape_; }
  uint32_t max_backlog(ColorId) const override { return 0; }
  void SeekRound(Round r) override { cursor_ = r; }
  std::unique_ptr<ArrivalSource> Clone() const override {
    auto clone = std::make_unique<PushSource>(*this);
    clone->Reset();
    return clone;
  }

  // The runs the engine's next NextRound emits.
  std::vector<Run>& staged() { return runs_; }

 protected:
  void ResetImpl() override { runs_.clear(); }
  std::span<const Run> EmitRound(Round) override { return runs_; }

 private:
  Instance shape_;
};

// ΔLRU-EDF with the outcome projection on the way through, in the pattern
// of analysis::TimelinePolicy: drops are tallied as the engine reports
// them, recolorings are projected as the policy makes them, and the pending
// counts are sampled before the first execution so Step can take the
// round's executions from the engine's counts after it. The policy is held
// by value, so the forwarding calls bind statically.
class OnlineSolver::Projector final : public SchedulerPolicy {
 public:
  Projector(OnlineSolver& solver, DlruEdfPolicy::Params params)
      : solver_(solver), policy_(params) {}

  std::string name() const override { return policy_.name(); }
  void Reset(const Instance& instance, const EngineOptions& options) override {
    policy_.Reset(instance, options);
  }
  void OnJobsDropped(Round k, ColorId c, uint64_t count,
                     std::span<const JobId> jobs) override {
    solver_.Tally(c, count, solver_.dropped_by_base_);
    policy_.OnJobsDropped(k, c, count, jobs);
  }
  void AfterDropPhase(Round k) override { policy_.AfterDropPhase(k); }
  void OnArrivals(Round k, ColorId c, uint64_t count) override {
    policy_.OnArrivals(k, c, count);
  }
  void AfterArrivalPhase(Round k) override { policy_.AfterArrivalPhase(k); }
  void Reconfigure(Round k, int mini, ResourceView& view) override {
    if (mini == 0) {
      for (const ColorId c : view.nonidle_colors()) {
        solver_.pending_before_.emplace_back(c, view.pending_count(c));
      }
    }
    ProjectingView projecting(view, solver_);
    policy_.Reconfigure(k, mini, projecting);
  }
  void ExportMetrics(obs::Registry& registry) const override {
    policy_.ExportMetrics(registry);
  }
  void SaveState(snapshot::Writer& w) const override { policy_.SaveState(w); }
  void LoadState(snapshot::Reader& r) override { policy_.LoadState(r); }

 private:
  // Forwards to the engine's view and projects every actual recoloring
  // (the engine only charges real changes, so compare before setting).
  class ProjectingView final : public ResourceView {
   public:
    ProjectingView(ResourceView& inner, OnlineSolver& solver)
        : ResourceView(inner.pending_table(), inner.pending_stride()),
          inner_(inner),
          solver_(solver) {}

    uint32_t num_resources() const override { return inner_.num_resources(); }
    ColorId color_of(ResourceId r) const override {
      return inner_.color_of(r);
    }
    void SetColor(ResourceId r, ColorId c) override {
      const bool recolors = inner_.color_of(r) != c;
      inner_.SetColor(r, c);
      if (recolors) solver_.ProjectRecolor(r, c);
    }
    Round earliest_deadline(ColorId c) const override {
      return inner_.earliest_deadline(c);
    }
    const std::vector<ColorId>& nonidle_colors() const override {
      return inner_.nonidle_colors();
    }

   private:
    ResourceView& inner_;
    OnlineSolver& solver_;
  };

  OnlineSolver& solver_;
  DlruEdfPolicy policy_;
};

OnlineSolver::OnlineSolver(std::vector<ColorSpec> colors,
                           EngineOptions options, DlruEdfPolicy::Params params)
    : colors_(std::move(colors)),
      projector_(std::make_unique<Projector>(*this, params)),
      resource_base_color_(options.num_resources, kNoColor),
      executed_by_base_(colors_.size(), 0),
      dropped_by_base_(colors_.size(), 0) {
  RRS_CHECK(!options.record_schedule)
      << "OnlineSolver reports color counts, not job ids; schedule recording "
         "is unsupported";
  // The inner color table: max_subcolors subcolors with delay bound D' per
  // original color, numbered consecutively.
  InstanceBuilder inner;
  inner_delay_.reserve(colors_.size());
  first_subcolor_.reserve(colors_.size());
  for (const auto& spec : colors_) {
    RRS_CHECK_GE(spec.max_subcolors, 1u);
    inner_delay_.push_back(VarBatchDelayBound(spec.delay_bound));
    first_subcolor_.push_back(static_cast<ColorId>(base_of_.size()));
    for (uint32_t s = 0; s < spec.max_subcolors; ++s) {
      base_of_.push_back(static_cast<ColorId>(inner_delay_.size() - 1));
      inner.AddColor(inner_delay_.back());
    }
  }
  source_ = std::make_unique<PushSource>(inner.Build());
  engine_.Reset(*source_, options);
  engine_.BeginRun(*projector_);
}

OnlineSolver::~OnlineSolver() = default;

void OnlineSolver::Reset() {
  engine_.AbortRun();
  engine_.BeginRun(*projector_);  // also resets the policy and the source
  arrived_ = 0;
  reconfigurations_ = 0;
  std::fill(resource_base_color_.begin(), resource_base_color_.end(),
            kNoColor);
  buffered_.clear();
}

CostBreakdown OnlineSolver::cost() const {
  const CostBreakdown& inner = engine_.run_cost();
  // OnlineSolver models unit drop costs, as does the inner color table.
  return {reconfigurations_, inner.drops, inner.weighted_drops};
}

void OnlineSolver::ProjectRecolor(ResourceId r, ColorId inner_color) {
  // Only base-color changes count (Lemma 4.2).
  const ColorId base =
      inner_color == kNoColor ? kNoColor : base_of_[inner_color];
  if (resource_base_color_[r] == base) return;
  resource_base_color_[r] = base;
  ++reconfigurations_;
  outcome_.reconfigs.emplace_back(r, base);
}

void OnlineSolver::Tally(ColorId inner_color, uint64_t count,
                         std::vector<uint64_t>& by_base) {
  const ColorId base = base_of_[inner_color];
  if (executed_by_base_[base] == 0 && dropped_by_base_[base] == 0) {
    touched_bases_.push_back(base);
  }
  by_base[base] += count;
}

const RoundOutcome& OnlineSolver::Step(
    std::span<const std::pair<ColorId, uint64_t>> arrivals) {
  const Round k = engine_.next_round();
  // VarBatch streaming: buffer each arrival at its half-block boundary.
  for (const auto& [c, count] : arrivals) {
    RRS_CHECK_LT(c, colors_.size());
    if (count == 0) continue;
    arrived_ += count;
    buffered_[{VarBatchArrival(k, colors_[c].delay_bound), c}] += count;
  }

  // Deliveries due this round (D = 1 colors buffer to the current round)
  // lead the map; stage them for the engine's arrival phase.
  std::vector<workload::ArrivalSource::Run>& staged = source_->staged();
  staged.clear();
  while (!buffered_.empty() && buffered_.front().first.first == k) {
    const ColorId c = buffered_.front().first.second;
    const uint64_t total = buffered_.front().second;
    // Distribute streaming: split the batch into subcolors of at most D'_c
    // jobs each, in rank order.
    const uint64_t d_inner = static_cast<uint64_t>(inner_delay_[c]);
    const uint64_t needed = total / d_inner + (total % d_inner != 0 ? 1 : 0);
    RRS_CHECK_LE(needed, colors_[c].max_subcolors)
        << "burst of " << total << " jobs of color " << c
        << " exceeds the declared subcolor budget";
    uint64_t remaining = total;
    for (uint64_t s = 0; remaining > 0; ++s) {
      const uint64_t chunk = std::min(remaining, d_inner);
      staged.emplace_back(first_subcolor_[c] + static_cast<ColorId>(s), chunk);
      remaining -= chunk;
    }
    buffered_.erase(buffered_.begin());
  }

  outcome_.round = k;
  outcome_.reconfigs.clear();
  outcome_.executions.clear();
  outcome_.drops.clear();
  pending_before_.clear();
  const uint64_t executed_before = engine_.run_executed();
  engine_.StepRounds(1);

  // Executions: what was pending before the first mini-round's execution
  // and is no longer pending now (nothing arrives or drops in between).
  if (engine_.run_executed() != executed_before) {
    for (const auto& [c, before] : pending_before_) {
      const uint64_t after = engine_.run_pending(c);
      if (before > after) Tally(c, before - after, executed_by_base_);
    }
  }
  std::sort(touched_bases_.begin(), touched_bases_.end());
  for (const ColorId base : touched_bases_) {
    if (const uint64_t n = std::exchange(executed_by_base_[base], 0)) {
      outcome_.executions.emplace_back(base, n);
    }
    if (const uint64_t n = std::exchange(dropped_by_base_[base], 0)) {
      outcome_.drops.emplace_back(base, n);
    }
  }
  touched_bases_.clear();
  return outcome_;
}

void OnlineSolver::Finish() {
  while (!buffered_.empty() ||
         engine_.run_executed() + engine_.run_cost().drops < arrived_) {
    Step({});
  }
}

void OnlineSolver::SaveState(snapshot::Writer& w) const {
  w.BeginSection(snapshot::kTagOnlineSolver);
  w.PutU64(colors_.size());
  w.PutI64(engine_.next_round());
  w.PutU64(arrived_);
  w.PutU64(reconfigurations_);
  w.PutVec(resource_base_color_);
  // Buffered VarBatch batches, in the map's sorted key order.
  w.PutU64(buffered_.size());
  for (const auto& [key, count] : buffered_) {
    w.PutI64(key.first);
    w.PutU32(key.second);
    w.PutU64(count);
  }
  w.EndSection();

  engine_.SnapshotRun(w);  // inner run + ΔLRU-EDF policy state
}

void OnlineSolver::LoadState(snapshot::Reader& r) {
  r.BeginSection(snapshot::kTagOnlineSolver);
  RRS_CHECK_EQ(r.GetU64(), colors_.size())
      << "solver snapshot restored against a different color table";
  const Round round = r.GetI64();
  arrived_ = r.GetU64();
  reconfigurations_ = r.GetU64();
  // Checkpoints can arrive from another process: range-check every value
  // that later indexes an array or drives a loop.
  r.GetVec(resource_base_color_);
  RRS_CHECK_EQ(resource_base_color_.size(), engine_.options().num_resources)
      << "solver snapshot restored with a different resource count";
  for (const ColorId c : resource_base_color_) {
    RRS_CHECK(c == kNoColor || c < colors_.size())
        << "solver snapshot base color " << c << " out of range";
  }
  buffered_.clear();
  const uint64_t num_batches = r.GetU64();
  for (uint64_t i = 0; i < num_batches; ++i) {
    const Round boundary = r.GetI64();
    const ColorId color = r.GetU32();
    // A past boundary would never be delivered, so Finish would not end.
    RRS_CHECK_GE(boundary, round)
        << "solver snapshot buffers a batch for a past round";
    RRS_CHECK_LT(color, colors_.size())
        << "solver snapshot buffered color out of range";
    buffered_[{boundary, color}] = r.GetU64();
  }
  r.EndSection();

  engine_.AbortRun();
  engine_.RestoreRun(*projector_, r);
  RRS_CHECK_EQ(engine_.next_round(), round)
      << "solver snapshot sections disagree on the round";
}

}  // namespace reduce
}  // namespace rrs
