#include "fleet/tick_core.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "fleet/batch_engine.h"
#include "fleet/slo.h"
#include "obs/flight_recorder.h"
#include "obs/level.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "util/check.h"
#include "workload/arrival_source.h"
#include "workload/generator_spec.h"

namespace rrs {
namespace fleet {

namespace {

// A tenant a slab could take in principle (shape compatibility with a
// particular slab is checked separately).
bool BatchEligible(const EngineOptions& options) {
  return !options.record_schedule && options.obs_scope == nullptr;
}

// The job's private arrival source, or null for an instance-fed job.
// Queued jobs hold only the closure (or the spec); this is where a
// streaming tenant's source comes into existence.
std::unique_ptr<workload::ArrivalSource> SourceOf(const FleetJob& job) {
  RRS_CHECK(job.kind == FleetJob::Kind::kReplay)
      << "the tick core runs replay tenants only";
  if (job.instance != nullptr) return nullptr;
  RRS_CHECK(job.make_source || job.source_spec != nullptr)
      << "a fleet job needs an instance, make_source or source_spec";
  std::unique_ptr<workload::ArrivalSource> source =
      job.make_source ? job.make_source()
                      : workload::MakeSource(*job.source_spec);
  RRS_CHECK(source != nullptr);
  return source;
}

}  // namespace

// A pooled slab: one BatchEngine plus one policy per lane (each lane's
// tenant gets its own policy instance, rebound via Reset inside OpenLane).
// A lane's policy is built when the lane first opens, so a sparse slab holds
// only the policies its tenants used.
struct TickCore::Slab {
  struct Lane {
    uint64_t tenant = 0;
    const Instance* shape = nullptr;  // for the SLO tracker's Finish
    std::unique_ptr<workload::ArrivalSource> source;
  };

  explicit Slab(uint32_t width)
      : engine(width), policies(width), lanes(width) {}

  BatchEngine engine;
  std::vector<std::unique_ptr<SchedulerPolicy>> policies;  // null until used
  std::vector<Lane> lanes;  // valid for open lanes
};

TickCore::TickCore(TickCoreOptions options)
    : options_(std::move(options)),
      pool_([this] {
        auto session = std::make_unique<Session>();
        session->policy = options_.policy_factory();
        RRS_CHECK(session->policy != nullptr);
        return session;
      }),
      slab_pool_([this] {
        return std::make_unique<Slab>(options_.batch_width);
      }) {
  RRS_CHECK(options_.policy_factory != nullptr);
  RRS_CHECK_GE(options_.rounds_per_tick, 1);
  RRS_CHECK_LE(options_.batch_width, BatchEngine::kMaxLanes);
  RRS_CHECK(!options_.trace_rounds || options_.batch_width <= 1)
      << "per-round tracing runs scalar sessions only";
  full_mask_ = options_.batch_width >= 64
                   ? ~uint64_t{0}
                   : (uint64_t{1} << options_.batch_width) - 1;
  // SLO tracking and flight recording are pure observation; obs::kEnabled
  // is constexpr false at RRS_OBS_LEVEL=0, erasing both.
  if (!obs::kEnabled) {
    options_.slo = nullptr;
    options_.ring = nullptr;
  }
}

TickCore::~TickCore() = default;

void TickCore::Admit(uint64_t tenant, const FleetJob& job) {
  std::unique_ptr<workload::ArrivalSource> source = SourceOf(job);
  const bool batching = options_.batch_width > 1;
  if (batching && BatchEligible(job.options)) {
    OpenLane(tenant, job, std::move(source));
  } else {
    if (batching) ++stats_.fallback_sessions;
    Session& session = Bind(tenant, job, std::move(source));
    session.engine.BeginRun(*session.policy);
  }
  stats_.peak_live_sessions =
      std::max<uint64_t>(stats_.peak_live_sessions, live());
  Record(obs::kFlightAdmit, tenant);
}

void TickCore::Restore(uint64_t tenant, const FleetJob& job,
                       std::span<const uint64_t> checkpoint) {
  Session& session = Bind(tenant, job, SourceOf(job));
  snapshot::Reader reader(checkpoint);
  // A streaming tenant's source sections sit right after the engine's in
  // the same words; passing the reader as its own source_state makes
  // RestoreRun consume them in place (O(source state), no replay).
  session.engine.RestoreRun(*session.policy, reader,
                            live_.back().source != nullptr ? &reader
                                                           : nullptr);
  RRS_CHECK(reader.AtEnd()) << "trailing words in tenant checkpoint";
  stats_.peak_live_sessions =
      std::max<uint64_t>(stats_.peak_live_sessions, live());
  Record(obs::kFlightRestore, tenant);
}

void TickCore::Checkpoint(size_t i, snapshot::Writer& w) const {
  const Live& entry = live_[i];
  w.Clear();
  entry.session->engine.SnapshotRun(w);
  if (entry.source != nullptr) entry.source->SaveState(w);
}

void TickCore::Evict(size_t i, snapshot::Writer* checkpoint) {
  RRS_CHECK_LT(i, live_.size());
  if (checkpoint != nullptr) Checkpoint(i, *checkpoint);
  live_[i].session->engine.AbortRun();
  pool_.Release(std::move(live_[i].session));
  live_.erase(live_.begin() + static_cast<ptrdiff_t>(i));
}

std::optional<size_t> TickCore::Find(uint64_t tenant) const {
  for (size_t i = 0; i < live_.size(); ++i) {
    if (live_[i].tenant == tenant) return i;
  }
  return std::nullopt;
}

TickCore::Session& TickCore::Bind(
    uint64_t tenant, const FleetJob& job,
    std::unique_ptr<workload::ArrivalSource> source) {
  live_.push_back({pool_.Acquire(), tenant, std::move(source)});
  Live& entry = live_.back();
  if (entry.source != nullptr) {
    entry.session->engine.Reset(*entry.source, job.options);
  } else {
    entry.session->engine.Reset(*job.instance, job.options);
  }
  return *entry.session;
}

void TickCore::OpenLane(uint64_t tenant, const FleetJob& job,
                        std::unique_ptr<workload::ArrivalSource> source) {
  const Instance& shape = source != nullptr ? source->shape() : *job.instance;
  Slab* slab = nullptr;
  for (auto& candidate : slabs_) {
    if (candidate->engine.next_round() == 0 &&
        candidate->engine.open_mask() != full_mask_ &&
        candidate->engine.LaneCompatible(shape, job.options)) {
      slab = candidate.get();
      break;
    }
  }
  if (slab == nullptr) {
    slabs_.push_back(slab_pool_.Acquire());
    slab = slabs_.back().get();
    RRS_CHECK(slab->engine.empty());
    Record(obs::kFlightSlabOpen, slabs_.size());
  }
  const uint32_t lane =
      static_cast<uint32_t>(std::countr_one(slab->engine.open_mask()));
  std::unique_ptr<SchedulerPolicy>& policy = slab->policies[lane];
  if (policy == nullptr) {
    policy = options_.policy_factory();
    RRS_CHECK(policy != nullptr);
  }
  if (source != nullptr) {
    slab->engine.OpenLane(lane, *source, job.options, *policy);
  } else {
    slab->engine.OpenLane(lane, *job.instance, job.options, *policy);
  }
  slab->lanes[lane] = {tenant, &shape, std::move(source)};
  ++lanes_;
  ++stats_.batched_sessions;
}

void TickCore::Step(TickSink& sink) {
  if (live() == 0) {
    stamped_ = false;
    return;
  }
  obs::Tracer* tracer =
      options_.scope != nullptr ? options_.scope->tracer() : nullptr;
  obs::TraceTrack* track = tracer != nullptr ? tracer->ThreadTrack() : nullptr;

  size_t out = 0;
  for (size_t i = 0; i < live_.size(); ++i) {
    Live& entry = live_[i];
    Engine& engine = entry.session->engine;
    bool more = false;
    {
      obs::Span span(tracer, track, options_.trace_label, entry.tenant);
      const Round before = engine.next_round();
      more = Advance(engine, entry.tenant, sink);
      stats_.rounds_stepped +=
          static_cast<uint64_t>(engine.next_round() - before);
    }
    if (more) {
      Progress(sink, entry.tenant, static_cast<uint64_t>(engine.next_round()),
               engine.run_cost());
      if (out != i) live_[out] = std::move(entry);
      ++out;
      continue;
    }
    RunResult& result = sink.Completion(entry.tenant);
    engine.FinishRun(result);
    Finished(entry.tenant, engine.instance(), result, result.drops_per_color);
    pool_.Release(std::move(entry.session));
  }
  live_.resize(out);

  StepSlabs(sink);

  ++stats_.ticks;
  Record(obs::kFlightTick, stats_.ticks);
  if (options_.slo != nullptr) options_.slo->Publish(options_.shard);
  stamped_ = false;
}

bool TickCore::Advance(Engine& engine, uint64_t tenant, TickSink& sink) {
  if (!options_.trace_rounds) {
    return engine.StepRounds(options_.rounds_per_tick);
  }
  bool more = true;
  for (Round r = 0; more && r < options_.rounds_per_tick; ++r) {
    more = engine.StepRounds(1);
    sink.Round(tenant, static_cast<uint64_t>(engine.next_round()),
               engine.run_cost(), engine.run_executed());
  }
  return more;
}

void TickCore::StepSlabs(TickSink& sink) {
  size_t out = 0;
  for (size_t i = 0; i < slabs_.size(); ++i) {
    Slab& slab = *slabs_[i];
    BatchEngine& engine = slab.engine;
    const uint64_t lanes_before = engine.lane_rounds_stepped();
    const uint64_t slabs_before = engine.slab_rounds_stepped();
    const bool more = engine.StepRounds(options_.rounds_per_tick);
    const uint64_t lane_delta = engine.lane_rounds_stepped() - lanes_before;
    stats_.rounds_stepped += lane_delta;
    stats_.lane_rounds_stepped += lane_delta;
    stats_.slab_rounds_stepped += engine.slab_rounds_stepped() - slabs_before;
    for (uint64_t open = engine.open_mask(); open != 0; open &= open - 1) {
      const uint32_t lane = static_cast<uint32_t>(std::countr_zero(open));
      Slab::Lane& slot = slab.lanes[lane];
      if (!engine.lane_done(lane)) {
        Progress(sink, slot.tenant,
                 static_cast<uint64_t>(engine.lane_rounds(lane)),
                 engine.lane_cost(lane));
        continue;
      }
      RunResult& result = sink.Completion(slot.tenant);
      engine.FinishLane(lane, result);
      --lanes_;
      Finished(slot.tenant, *slot.shape, result, result.drops_per_color);
      slot.source.reset();
    }
    if (more) {
      if (out != i) slabs_[out] = std::move(slabs_[i]);
      ++out;
      continue;
    }
    RRS_CHECK(engine.empty());
    slab_pool_.Release(std::move(slabs_[i]));
    Record(obs::kFlightSlabClose, out + (slabs_.size() - i - 1));
  }
  slabs_.resize(out);
}

void TickCore::Progress(TickSink& sink, uint64_t tenant, uint64_t rounds,
                        const CostBreakdown& cost) {
  if (options_.slo != nullptr &&
      options_.slo->Observe(options_.shard, tenant, rounds, cost.drops) > 0) {
    Record(obs::kFlightSloExhausted, tenant);
  }
  sink.Progress(tenant, rounds, cost);
}

void TickCore::Complete(uint64_t tenant, const Instance& shape,
                        const RunResult& result,
                        std::span<const uint64_t> drops_per_color) {
  stats_.rounds_stepped += static_cast<uint64_t>(result.rounds_simulated);
  Finished(tenant, shape, result, drops_per_color);
}

void TickCore::Finished(uint64_t tenant, const Instance& shape,
                        const RunResult& result,
                        std::span<const uint64_t> drops_per_color) {
  ++stats_.sessions_completed;
  if (options_.slo != nullptr &&
      options_.slo->Finish(options_.shard, tenant, shape, result,
                           drops_per_color) > 0) {
    Record(obs::kFlightSloExhausted, tenant);
  }
  Record(obs::kFlightFinish, tenant, result.cost.drops);
}

void TickCore::Record(uint32_t type, uint64_t arg1, uint64_t arg2) {
  if (options_.ring == nullptr) return;
  // One clock read per tick: every event of the tick — admits, finishes,
  // the tick mark itself — shares the first event's stamp.
  if (!stamped_) {
    now_ns_ = obs::NowNs();
    stamped_ = true;
  }
  options_.ring->RecordAt(now_ns_, type, static_cast<uint32_t>(options_.shard),
                          arg1, arg2);
}

FleetStats TickCore::stats() const {
  FleetStats stats = stats_;
  stats.sessions_created = pool_.created();
  stats.sessions_recycled = pool_.recycled();
  return stats;
}

}  // namespace fleet
}  // namespace rrs
