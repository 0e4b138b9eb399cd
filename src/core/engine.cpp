#include "core/engine.h"

#include <algorithm>

#include "core/job_ring.h"
#include "core/run_telemetry.h"
#include "obs/scope.h"
#include "util/check.h"

namespace rrs {

// The session arena: all mutable simulation state, owned by the Engine for
// its whole lifetime and rebound to each tenant by StartRun. Buffers are
// assigned (not reconstructed) per run, so capacity acquired for one tenant
// carries over to the next — after the first tenant of a given shape, runs
// perform no steady-state allocation (Session rules 1-2, core/session.h).
//
// The expiry schedule is a timing wheel over the next max-delay-bound
// rounds: when round k's arrival phase gives color c the deadline k + D_c,
// the color is pushed (deduplicated per deadline) into wheel slot
// (k + D_c) mod W with W > max D_ℓ, and round k's drop phase consumes
// exactly slot k mod W. Deadlines live at most max D_ℓ rounds, so a slot is
// always consumed (and cleared) before it is reused; any W > max D_ℓ gives
// the same slot contents per round, so the wheel keeps the largest size any
// tenant needed.
struct Engine::SimState {
  const Instance* instance = nullptr;
  EngineOptions options;

  std::vector<ColorId> resource_color;

  std::vector<JobRing> rings;
  // Dense per-color pending counts (== rings[c].size()), exported to the
  // policy through ResourceView's non-virtual pending_count.
  std::vector<uint64_t> pending_n;

  std::vector<ColorId> nonidle_list;  // lazily compacted
  std::vector<uint8_t> in_nonidle_list;

  // Timing-wheel expiry schedule: wheel[k % wheel.size()] holds the colors
  // with a pending deadline in round k (pushed during arrival phases,
  // deduplicated via last_wheel_push, cleared when consumed).
  std::vector<std::vector<ColorId>> wheel;
  std::vector<Round> last_wheel_push;

  // Execution-phase scratch: per-color resource histogram + touched list.
  std::vector<uint32_t> exec_count;
  std::vector<ColorId> exec_touched;
  std::vector<JobId> dropped_scratch;  // wrapped drop spans only

  // Per-run accumulators, kept here (not on the stack of Run) so a run can
  // pause between StepRounds calls.
  CostBreakdown cost;
  uint64_t executed = 0;
  // Jobs pulled from the source so far; doubles as the next dense JobId
  // (arrivals are numbered consecutively in emission order, which for an
  // InstanceSource reproduces the Instance's JobIds exactly).
  uint64_t arrived = 0;
  std::vector<uint64_t> drops_per_color;
  Schedule schedule;
  Schedule* schedule_ptr = nullptr;  // &schedule iff recording
  obs::RunInstruments instruments;

#if RRS_OBS_LEVEL >= 1
  // Per-color recoloring counts (telemetry); recolorings to black are only
  // in the aggregate total.
  std::vector<uint64_t> reconfigs_per_color;
#endif

  uint64_t pending_count(ColorId c) const { return pending_n[c]; }

  // Rebinds the arena to a tenant and clears all per-run state. O(num
  // colors + num resources + wheel size) writes, zero allocations once every
  // buffer has grown to the shape.
  void StartRun(const Instance& inst, const EngineOptions& opts,
                const workload::ArrivalSource& source) {
    instance = &inst;
    options = opts;
    const size_t num_colors = inst.num_colors();

    resource_color.assign(opts.num_resources, kNoColor);
    if (rings.size() < num_colors) rings.resize(num_colors);
    for (auto& ring : rings) ring.clear();
    // Pre-size each ring to the tenant's backlog bound so the round loop
    // never grows one mid-run: ring allocation happens here, at the tenant
    // boundary, and a reused session whose rings already fit performs none.
    // The bound comes from the source (a jobless shape Instance reports 0).
    uint32_t max_backlog_any = 0;
    for (ColorId c = 0; c < num_colors; ++c) {
      const uint32_t bound = source.max_backlog(c);
      rings[c].Reserve(bound);
      max_backlog_any = std::max(max_backlog_any, bound);
    }
    pending_n.assign(num_colors, 0);
    nonidle_list.clear();
    nonidle_list.reserve(num_colors);
    in_nonidle_list.assign(num_colors, 0);
    last_wheel_push.assign(num_colors, -1);
    exec_count.assign(num_colors, 0);
    exec_touched.clear();
    exec_touched.reserve(num_colors);
    dropped_scratch.clear();
    // A wrapped drop span copies at most one color's whole backlog.
    dropped_scratch.reserve(max_backlog_any);

    Round max_delay = 1;
    for (ColorId c = 0; c < num_colors; ++c) {
      max_delay = std::max(max_delay, inst.delay_bound(c));
    }
    const size_t wheel_size = static_cast<size_t>(max_delay) + 1;
    if (wheel.size() < wheel_size) wheel.resize(wheel_size);
    for (auto& slot : wheel) slot.clear();

    cost = CostBreakdown{};
    executed = 0;
    arrived = 0;
    drops_per_color.assign(num_colors, 0);
#if RRS_OBS_LEVEL >= 1
    reconfigs_per_color.assign(num_colors, 0);
#endif
    if (opts.record_schedule) {
      schedule = Schedule(opts.num_resources, opts.mini_rounds_per_round);
      schedule_ptr = &schedule;
    } else {
      schedule_ptr = nullptr;
    }
    instruments.Rebind(opts.obs_scope, "engine");
  }

  // Appends `count` jobs with consecutive ids and a common deadline to color
  // c, registering the deadline in the expiry wheel.
  void AddRun(ColorId c, JobId first, Round deadline, uint32_t count) {
    if (count == 0) return;
    if (pending_n[c] == 0 && !in_nonidle_list[c]) {
      in_nonidle_list[c] = 1;
      nonidle_list.push_back(c);
    }
    rings[c].push_run(first, deadline, count);
    pending_n[c] += count;
    if (last_wheel_push[c] != deadline) {
      last_wheel_push[c] = deadline;
      wheel[static_cast<size_t>(deadline) % wheel.size()].push_back(c);
    }
  }

  // Removes nonidle-list entries whose color went idle. Amortized O(1) per
  // idle transition.
  void CompactNonidle() {
    size_t out = 0;
    for (size_t i = 0; i < nonidle_list.size(); ++i) {
      ColorId c = nonidle_list[i];
      if (pending_n[c] != 0) {
        nonidle_list[out++] = c;
      } else {
        in_nonidle_list[c] = 0;
      }
    }
    nonidle_list.resize(out);
  }
};

// `final` so internal calls through View& devirtualize; policies still see
// the ResourceView interface. The view lives as long as the engine and is
// re-pointed at the pending table each BeginRun (its storage may move when
// a larger tenant grows it).
class Engine::View final : public ResourceView {
 public:
  explicit View(SimState& state)
      : ResourceView(state.pending_n.data()), state_(state) {}

  void Rebind() { set_pending_table(state_.pending_n.data()); }

  void SetPhase(Round round, int mini) {
    round_ = round;
    mini_ = mini;
    compacted_ = false;
  }

  uint32_t num_resources() const final {
    return state_.options.num_resources;
  }

  ColorId color_of(ResourceId r) const final {
    RRS_DCHECK(r < state_.resource_color.size());
    return state_.resource_color[r];
  }

  void SetColor(ResourceId r, ColorId c) final {
    RRS_CHECK_LT(r, state_.resource_color.size());
    RRS_CHECK(c == kNoColor || c < state_.instance->num_colors())
        << "SetColor to unknown color " << c;
    if (state_.resource_color[r] == c) return;
    state_.resource_color[r] = c;
    ++state_.cost.reconfigurations;
#if RRS_OBS_LEVEL >= 1
    if (c != kNoColor) ++state_.reconfigs_per_color[c];
    if (state_.instruments.tracing()) {
      state_.instruments.EmitRecolor(round_, r);
    }
#endif
    if (state_.schedule_ptr != nullptr) {
      state_.schedule_ptr->AddReconfig(round_, mini_, r, c);
    }
  }

  Round earliest_deadline(ColorId c) const final {
    RRS_CHECK(!state_.rings[c].empty())
        << "earliest_deadline on idle color " << c;
    return state_.rings[c].front_deadline();
  }

  const std::vector<ColorId>& nonidle_colors() const final {
    if (!compacted_) {
      state_.CompactNonidle();
      compacted_ = true;
    }
    return state_.nonidle_list;
  }

 private:
  SimState& state_;
  Round round_ = 0;
  int mini_ = 0;
  mutable bool compacted_ = false;
};

Engine::Engine() = default;
Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

Engine::Engine(const Instance& instance, EngineOptions options) {
  Reset(instance, options);
}

void Engine::Reset(const Instance& instance, EngineOptions options) {
  RRS_CHECK(!running_) << "Engine::Reset during an open run";
  RRS_CHECK_GE(options.num_resources, 1u);
  RRS_CHECK_GE(options.mini_rounds_per_round, 1);
  RRS_CHECK_GE(options.cost_model.delta, 1u);
  own_source_.Bind(instance);
  external_source_ = nullptr;
  instance_ = &instance;
  horizon_ = instance.horizon();
  request_rounds_ = instance.num_request_rounds();
  options_ = options;
  if (state_ == nullptr) state_ = std::make_unique<SimState>();
}

void Engine::Reset(const Instance& instance) { Reset(instance, options_); }

void Engine::Reset(workload::ArrivalSource& source, EngineOptions options) {
  RRS_CHECK(!running_) << "Engine::Reset during an open run";
  RRS_CHECK_GE(options.num_resources, 1u);
  RRS_CHECK_GE(options.mini_rounds_per_round, 1);
  RRS_CHECK_GE(options.cost_model.delta, 1u);
  external_source_ = &source;
  instance_ = &source.shape();
  horizon_ = source.horizon();
  request_rounds_ = source.num_request_rounds();
  options_ = options;
  if (state_ == nullptr) state_ = std::make_unique<SimState>();
}

void Engine::Reset(workload::ArrivalSource& source) { Reset(source, options_); }

RunResult Engine::Run(SchedulerPolicy& policy) {
  RunResult result;
  BeginRun(policy);
  StepRounds(horizon_ + 1);
  FinishRun(result);
  return result;
}

void Engine::BeginRun(SchedulerPolicy& policy) {
  RRS_CHECK(instance_ != nullptr) << "BeginRun on an unbound engine session";
  RRS_CHECK(!running_) << "BeginRun while a run is open";
  src().Reset();
  state_->StartRun(*instance_, options_, src());
  if (view_ == nullptr) view_ = std::make_unique<View>(*state_);
  view_->Rebind();
  policy.Reset(*instance_, options_);
  policy_ = &policy;
  next_round_ = 0;
  running_ = true;
}

bool Engine::StepRounds(Round max_rounds) {
  RRS_CHECK(running_) << "StepRounds without BeginRun";
  RRS_CHECK_GE(max_rounds, 1);
  SimState& state = *state_;
  SchedulerPolicy& policy = *policy_;
  View& view = *view_;
  obs::RunInstruments& instruments = state.instruments;
  Schedule* const schedule_ptr = state.schedule_ptr;

  workload::ArrivalSource& source = src();
  const bool instance_fed = external_source_ == nullptr;
  const Round horizon = horizon_;
  if (next_round_ > horizon) return false;
  const uint32_t num_resources = options_.num_resources;
  const size_t wheel_size = state.wheel.size();
  // Overflow-safe "min(horizon, next + max - 1)".
  const Round last = (max_rounds - 1 >= horizon - next_round_)
                         ? horizon
                         : next_round_ + max_rounds - 1;

  for (Round k = next_round_; k <= last; ++k) {
    // Phase wall times are sampled (every round only when tracing); with no
    // scope attached this folds to a single dead branch per round.
    const bool obs_sampled = instruments.ShouldSample(k);
    uint64_t obs_t0 = obs_sampled ? obs::NowNs() : 0;

    // ---- Drop phase: jobs with deadline == k are dropped. ----
    auto& slot = state.wheel[static_cast<size_t>(k) % wheel_size];
    if (!slot.empty()) {
      for (const ColorId c : slot) {
        auto& ring = state.rings[c];
        uint32_t n = 0;
        const uint32_t sz = ring.size();
        while (n < sz && ring.deadline_at(n) == k) ++n;
        if (n == 0) continue;
        std::span<const JobId> jobs;
        if (ring.front_contiguous(n)) {
          jobs = std::span<const JobId>(ring.front_ptr(), n);
        } else {
          state.dropped_scratch.clear();
          for (uint32_t i = 0; i < n; ++i) {
            state.dropped_scratch.push_back(ring.job_at(i));
          }
          jobs = state.dropped_scratch;
        }
        state.cost.drops += n;
        state.cost.weighted_drops += n * instance_->drop_cost(c);
        state.drops_per_color[c] += n;
        policy.OnJobsDropped(k, c, n, jobs);
        ring.pop_n(n);
        state.pending_n[c] -= n;
      }
      slot.clear();
    }
    policy.AfterDropPhase(k);
    if (obs_sampled) {
      const uint64_t t = obs::NowNs();
      instruments.RecordPhase(obs::kPhaseDrop, k, obs_t0, t);
      obs_t0 = t;
    }

    // ---- Arrival phase: request k, pulled from the bound source. ----
    // NextRound is called for every round below the request horizon (even
    // all-idle ones) so the source cursor tracks the simulated round. Runs
    // arrive grouped per color for the policy callback; ids are assigned
    // consecutively in emission order, matching the materialized JobIds.
    //
    // Instance-fed sessions take the inline loop over the job vector
    // instead of InstanceSource::NextRound: same coalescing, same ids, but
    // no per-round run-vector rebuild or virtual dispatch — the light-
    // policy cells of bench_baseline are arrival-bound and pay ~15% for
    // the indirection. The own-source cursor is re-synced once per
    // StepRounds call below, which is all snapshots observe.
    if (k < request_rounds_) {
      if (instance_fed) {
        auto arrivals = instance_->jobs_in_round(k);
        size_t i = 0;
        while (i < arrivals.size()) {
          const ColorId c = arrivals[i].color;
          const Round deadline = k + instance_->delay_bound(c);
          RRS_CHECK_LE(deadline, horizon);
          size_t j = i;
          while (j < arrivals.size() && arrivals[j].color == c) ++j;
          state.AddRun(c, static_cast<JobId>(state.arrived), deadline,
                       static_cast<uint32_t>(j - i));
          state.arrived += j - i;
          policy.OnArrivals(k, c, j - i);
          i = j;
        }
      } else {
        for (const auto& [c, count] : source.NextRound()) {
          if (count == 0) continue;
          const Round deadline = k + instance_->delay_bound(c);
          RRS_CHECK_LE(deadline, horizon);
          state.AddRun(c, static_cast<JobId>(state.arrived), deadline,
                       static_cast<uint32_t>(count));
          state.arrived += count;
          policy.OnArrivals(k, c, count);
        }
      }
    }
    policy.AfterArrivalPhase(k);
    if (obs_sampled) {
      const uint64_t t = obs::NowNs();
      instruments.RecordPhase(obs::kPhaseArrival, k, obs_t0, t);
      obs_t0 = t;
    }

    // ---- Mini-rounds: reconfiguration + execution phases. ----
    for (int mini = 0; mini < options_.mini_rounds_per_round; ++mini) {
      view.SetPhase(k, mini);
      policy.Reconfigure(k, mini, view);
      if (obs_sampled) {
        const uint64_t t = obs::NowNs();
        instruments.RecordPhase(obs::kPhaseReconfig, k, obs_t0, t);
        obs_t0 = t;
      }

      if (schedule_ptr == nullptr) {
        // Batched execution: count resources per color once, then bulk-
        // advance each color's ring. Equivalent to the per-resource pops
        // below — each of a color's R resources executes one of its P
        // earliest pending jobs, min(R, P) in total — but costs one pass
        // over resource_color plus one touch per active color.
        auto& count = state.exec_count;
        auto& touched = state.exec_touched;
        touched.clear();
        for (ResourceId r = 0; r < num_resources; ++r) {
          const ColorId c = state.resource_color[r];
          if (c == kNoColor) continue;
          if (count[c]++ == 0) touched.push_back(c);
        }
        for (ColorId c : touched) {
          const uint64_t take =
              std::min<uint64_t>(count[c], state.pending_n[c]);
          count[c] = 0;
          state.rings[c].pop_n(static_cast<uint32_t>(take));
          state.pending_n[c] -= take;
          state.executed += take;
        }
      } else {
        // Recording path: per-resource pops, so each execution is attributed
        // to its resource in resource order (the validator's expectation).
        for (ResourceId r = 0; r < num_resources; ++r) {
          const ColorId c = state.resource_color[r];
          if (c == kNoColor) continue;
          auto& ring = state.rings[c];
          if (ring.empty()) continue;
          const JobId job = ring.front_job();
          ring.pop_n(1);
          --state.pending_n[c];
          ++state.executed;
          schedule_ptr->AddExecution(k, mini, r, job);
        }
      }
      if (obs_sampled) {
        const uint64_t t = obs::NowNs();
        instruments.RecordPhase(obs::kPhaseExecute, k, obs_t0, t);
        obs_t0 = t;
      }
    }
  }

  next_round_ = last + 1;
  // Keep the own-source cursor at the simulated round so snapshot-time
  // invariants and SeekRound-based restores see a consistent source; O(1)
  // for an InstanceSource.
  if (instance_fed) source.SeekRound(next_round_);
  return next_round_ <= horizon;
}

void Engine::FinishRun(RunResult& result) {
  RRS_CHECK(running_) << "FinishRun without BeginRun";
  RRS_CHECK_GT(next_round_, horizon_) << "FinishRun before the horizon";
  SimState& state = *state_;

  result.cost = state.cost;
  result.executed = state.executed;
  result.arrived = state.arrived;
  result.rounds_simulated = horizon_ + 1;
  result.drops_per_color = state.drops_per_color;

  // Every job must have been executed or dropped by the horizon.
  RRS_CHECK_EQ(result.executed + result.cost.drops, result.arrived)
      << "engine accounting mismatch";

#if RRS_OBS_LEVEL >= 1
  internal::FinalizeRunTelemetry(*policy_, state.instruments,
                                 state.reconfigs_per_color, result);
#else
  internal::FinalizeRunTelemetry(*policy_, state.instruments, {}, result);
#endif
  if (state.schedule_ptr != nullptr) {
    result.schedule = std::move(state.schedule);
    state.schedule_ptr = nullptr;
  } else {
    result.schedule.reset();
  }
  policy_ = nullptr;
  running_ = false;
}

const CostBreakdown& Engine::state_cost() const {
  RRS_CHECK(running_) << "run_cost outside an open run";
  return state_->cost;
}

uint64_t Engine::state_executed() const {
  RRS_CHECK(running_) << "run_executed outside an open run";
  return state_->executed;
}

uint64_t Engine::run_pending(ColorId c) const {
  RRS_CHECK(running_) << "run_pending outside an open run";
  RRS_DCHECK(c < instance_->num_colors());
  return state_->pending_n[c];
}

void Engine::SnapshotRun(snapshot::Writer& w) const {
  RRS_CHECK(running_) << "SnapshotRun without an open run";
  const SimState& state = *state_;
  RRS_CHECK(state.schedule_ptr == nullptr)
      << "recording runs cannot be snapshotted";

  w.BeginSection(snapshot::kTagEngine);
  // Shape words: restore must target an equal-shaped session.
  w.PutU64(instance_->num_colors());
  w.PutU32(options_.num_resources);
  w.PutI64(next_round_);
  w.PutVec(state.resource_color);
  for (size_t c = 0; c < instance_->num_colors(); ++c) {
    state.rings[c].SaveState(w);
  }
  w.PutVec(state.pending_n);
  w.PutVec(state.nonidle_list);
  w.PutVec(state.in_nonidle_list);
  // The wheel at its exact current size: slot membership of round k is
  // wheel[k % W], so the restored session must keep the same W even if its
  // own arena had grown a larger wheel for an earlier tenant.
  w.PutU64(state.wheel.size());
  for (const auto& slot : state.wheel) w.PutVec(slot);
  w.PutVec(state.last_wheel_push);
  w.PutU64(state.cost.reconfigurations);
  w.PutU64(state.cost.drops);
  w.PutU64(state.cost.weighted_drops);
  w.PutU64(state.executed);
  w.PutVec(state.drops_per_color);
#if RRS_OBS_LEVEL >= 1
  w.PutBool(true);
  w.PutVec(state.reconfigs_per_color);
#else
  w.PutBool(false);
#endif
  w.EndSection();

  policy_->SaveState(w);
}

void Engine::RestoreRun(SchedulerPolicy& policy, snapshot::Reader& r,
                        snapshot::Reader* source_state) {
  // BeginRun gives a fresh arena bound to this session's instance and a
  // Reset policy; the snapshot then overwrites the mutable state.
  BeginRun(policy);
  SimState& state = *state_;

  r.BeginSection(snapshot::kTagEngine);
  const size_t num_colors = instance_->num_colors();
  RRS_CHECK_EQ(r.GetU64(), num_colors)
      << "snapshot restored against a different color universe";
  RRS_CHECK_EQ(r.GetU32(), options_.num_resources)
      << "snapshot restored with a different resource count";
  next_round_ = r.GetI64();
  RRS_CHECK_LE(next_round_, horizon_ + 1);
  // Checkpoints can arrive from another process, so every value that later
  // indexes a per-color array is range-checked here, before the round loop
  // trusts it.
  r.GetVec(state.resource_color);
  RRS_CHECK_EQ(state.resource_color.size(), options_.num_resources);
  for (const ColorId c : state.resource_color) {
    RRS_CHECK(c == kNoColor || c < num_colors)
        << "snapshot resource color " << c << " out of range";
  }
  for (size_t c = 0; c < num_colors; ++c) {
    state.rings[c].LoadState(r);
    state.pending_n[c] = state.rings[c].size();
  }
  RRS_CHECK_EQ(r.GetU64(), state.pending_n.size());
  for (size_t c = 0; c < state.pending_n.size(); ++c) {
    RRS_CHECK_EQ(r.GetU64(), state.pending_n[c])
        << "snapshot pending count disagrees with ring contents for color "
        << c;
  }
  r.GetVec(state.nonidle_list);
  for (const ColorId c : state.nonidle_list) {
    RRS_CHECK_LT(c, num_colors) << "snapshot nonidle color out of range";
  }
  r.GetVec(state.in_nonidle_list);
  RRS_CHECK_EQ(state.in_nonidle_list.size(), num_colors);
  // A deadline lies at most max D rounds ahead, so the wheel needs more than
  // max D slots; each slot takes at least its count word.
  Round max_delay = 1;
  for (ColorId c = 0; c < num_colors; ++c) {
    max_delay = std::max(max_delay, instance_->delay_bound(c));
  }
  const uint64_t wheel_size = r.GetU64();
  RRS_CHECK_GT(wheel_size, static_cast<uint64_t>(max_delay))
      << "snapshot wheel smaller than max delay bound + 1";
  RRS_CHECK_LE(wheel_size, r.remaining()) << "snapshot wheel overruns section";
  state.wheel.resize(wheel_size);
  for (auto& slot : state.wheel) {
    r.GetVec(slot);
    for (const ColorId c : slot) {
      RRS_CHECK_LT(c, num_colors) << "snapshot wheel color out of range";
    }
  }
  r.GetVec(state.last_wheel_push);
  RRS_CHECK_EQ(state.last_wheel_push.size(), num_colors);
  state.cost.reconfigurations = r.GetU64();
  state.cost.drops = r.GetU64();
  state.cost.weighted_drops = r.GetU64();
  state.executed = r.GetU64();
  r.GetVec(state.drops_per_color);
  RRS_CHECK_EQ(state.drops_per_color.size(), num_colors);
  const bool obs_fields = r.GetBool();
#if RRS_OBS_LEVEL >= 1
  RRS_CHECK(obs_fields)
      << "snapshot from an RRS_OBS_LEVEL=0 build lacks telemetry state";
  r.GetVec(state.reconfigs_per_color);
  RRS_CHECK_EQ(state.reconfigs_per_color.size(), num_colors);
#else
  RRS_CHECK(!obs_fields)
      << "snapshot carries telemetry state this RRS_OBS_LEVEL=0 build drops";
#endif
  r.EndSection();

  // The snapshot has no arrival counter (its byte format predates streaming
  // sources), but every arrived job is executed, dropped, or pending — and
  // ids are dense — so the count is derivable.
  uint64_t pending_total = 0;
  for (const uint64_t n : state.pending_n) pending_total += n;
  state.arrived = state.executed + state.cost.drops + pending_total;

  policy.LoadState(r);

  // Reposition the source at the snapshot round: from its own saved words
  // when provided (dist migration), else by deterministic replay.
  if (source_state != nullptr) {
    src().LoadState(*source_state);
    RRS_CHECK_EQ(src().cursor(), std::min(next_round_, request_rounds_))
        << "restored source state disagrees with the engine round";
  } else {
    src().SeekRound(next_round_);
  }
}

void Engine::AbortRun() {
  RRS_CHECK(running_) << "AbortRun without an open run";
  state_->schedule_ptr = nullptr;
  policy_ = nullptr;
  running_ = false;
}

RunResult RunPolicy(const Instance& instance, SchedulerPolicy& policy,
                    const EngineOptions& options) {
  Engine engine(instance, options);
  return engine.Run(policy);
}

}  // namespace rrs
