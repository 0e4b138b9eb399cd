#include "fleet/chaos_fleet.h"

#include <string>
#include <utility>

#include "fleet/slo.h"
#include "fleet/tick_core.h"
#include "obs/flight_recorder.h"
#include "obs/level.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "util/check.h"

namespace rrs {
namespace fleet {

void ChaosStats::MergeFrom(const ChaosStats& other) {
  ticks += other.ticks;
  kills += other.kills;
  evictions += other.evictions;
  delayed_restores += other.delayed_restores;
  rebalances += other.rebalances;
  restores += other.restores;
  migrations += other.migrations;
  noop_faults += other.noop_faults;
  snapshot_words += other.snapshot_words;
  sessions_completed += other.sessions_completed;
  rounds_stepped += other.rounds_stepped;
}

// Worker-local state. Within a tick each worker is touched by exactly one
// thread; between ticks only the serial coordinator mutates it, so nothing
// here is synchronized.
struct ChaosFleetRunner::Worker {
  Worker(const ChaosOptions& options, size_t worker_index)
      : index(worker_index), core([&] {
          TickCoreOptions core;
          core.policy_factory = options.policy_factory;
          core.rounds_per_tick = options.rounds_per_tick;
          core.shard = worker_index;
          core.slo = options.slo;
          if (options.recorder != nullptr) {
            core.ring = options.recorder->Ring("chaos.worker" +
                                               std::to_string(worker_index));
          }
          core.scope = options.scope;
          core.trace_label = options.trace_label;
          return core;
        }()) {}

  const size_t index;
  TickCore core;
  std::vector<size_t> waiting;       // job indices, admission order
  std::vector<Checkpoint> incoming;  // restored when delay_ticks reaches 0
  ChaosStats stats;                  // worker-side restores and migrations
};

ChaosFleetRunner::ChaosFleetRunner(ChaosOptions options)
    : options_(std::move(options)), plan_rng_(options_.seed) {
  RRS_CHECK_GE(options_.num_workers, 1u);
  if (!options_.policy_factory) {
    const DlruEdfPolicy::Params params;
    options_.policy_factory = [params] {
      return std::make_unique<DlruEdfPolicy>(params);
    };
  }
  workers_.reserve(options_.num_workers);
  for (size_t w = 0; w < options_.num_workers; ++w) {
    workers_.push_back(std::make_unique<Worker>(options_, w));
  }
}

ChaosFleetRunner::~ChaosFleetRunner() = default;

void ChaosFleetRunner::TickWorker(Worker& worker,
                                  std::span<const FleetJob> jobs,
                                  std::span<RunResult> results) {
  obs::Tracer* tracer =
      options_.scope != nullptr ? options_.scope->tracer() : nullptr;
  obs::TraceTrack* track = tracer != nullptr ? tracer->ThreadTrack() : nullptr;

  // ---- Restore every due checkpoint (exempt from the live cap). ----
  size_t keep = 0;
  for (size_t i = 0; i < worker.incoming.size(); ++i) {
    Checkpoint& cp = worker.incoming[i];
    if (cp.delay_ticks > 0) {
      if (keep != i) worker.incoming[keep] = std::move(cp);  // no self-move
      ++keep;
      continue;
    }
    {
      obs::Span span(tracer, track, "fleet.chaos.restore",
                     static_cast<uint64_t>(cp.job_index));
      worker.core.Restore(cp.job_index, jobs[cp.job_index], cp.words);
    }
    ++worker.stats.restores;
    if (cp.from_worker != worker.index) ++worker.stats.migrations;
  }
  worker.incoming.resize(keep);

  // ---- Admit waiting tenants up to the live cap. ----
  size_t admitted = 0;
  while (admitted < worker.waiting.size() &&
         (options_.max_live_sessions == 0 ||
          worker.core.live() < options_.max_live_sessions)) {
    const size_t job_index = worker.waiting[admitted++];
    worker.core.Admit(job_index, jobs[job_index]);
  }
  worker.waiting.erase(
      worker.waiting.begin(),
      worker.waiting.begin() + static_cast<ptrdiff_t>(admitted));

  ResultSink sink(results);
  worker.core.Step(sink);
}

bool ChaosFleetRunner::InjectFaults() {
  obs::Tracer* tracer =
      options_.scope != nullptr ? options_.scope->tracer() : nullptr;
  obs::TraceTrack* track = tracer != nullptr ? tracer->ThreadTrack() : nullptr;
  const size_t num_workers = workers_.size();
  ++stats_.ticks;
  obs::FlightRing* ring = obs::kEnabled ? coord_ring_ : nullptr;
  if (ring != nullptr) ring->Record(obs::kFlightTick, 0, stats_.ticks);

  // Age checkpoints queued on earlier ticks toward their restore.
  for (auto& worker : workers_) {
    for (Checkpoint& cp : worker->incoming) {
      if (cp.delay_ticks > 0) --cp.delay_ticks;
    }
  }

  // Evicts one live session into a Checkpoint (shared by the kill and evict
  // paths). The pooled session survives as reusable capacity; the run state
  // lives on only in the checkpoint words.
  auto checkpoint = [&](Worker& worker, size_t live_index,
                        uint32_t delay_ticks) {
    Checkpoint cp;
    cp.job_index = worker.core.tenant(live_index);
    cp.delay_ticks = delay_ticks;
    cp.from_worker = worker.index;
    worker.core.Evict(live_index, &snapshot_scratch_);
    cp.words = snapshot_scratch_.words();
    stats_.snapshot_words += cp.words.size();
    return cp;
  };

  // ---- kill-worker ------------------------------------------------------
  if (num_workers > 1 && plan_rng_.Bernoulli(options_.kill_worker_prob)) {
    const size_t victim = plan_rng_.NextBounded(num_workers);
    Worker& worker = *workers_[victim];
    const size_t victims = worker.core.sessions();
    if (victims == 0) {
      ++stats_.noop_faults;
    } else {
      obs::Span span(tracer, track, "fleet.chaos.kill",
                     static_cast<uint64_t>(victims));
      ++stats_.kills;
      if (ring != nullptr) {
        ring->Record(obs::kFlightKillWorker, static_cast<uint32_t>(victim),
                     victims);
      }
      // Checkpoint every live tenant on the victim, in order, and deal the
      // snapshots round-robin to the surviving workers for immediate
      // restore.
      size_t target = victim;
      while (worker.core.sessions() > 0) {
        target = (target + 1) % num_workers;
        if (target == victim) target = (target + 1) % num_workers;
        workers_[target]->incoming.push_back(checkpoint(worker, 0, 0));
      }
    }
  }

  // ---- evict-and-restore (possibly delayed) -----------------------------
  if (plan_rng_.Bernoulli(options_.evict_prob)) {
    size_t total_live = 0;
    for (const auto& worker : workers_) total_live += worker->core.sessions();
    if (total_live == 0) {
      ++stats_.noop_faults;
    } else {
      size_t pick = plan_rng_.NextBounded(total_live);
      size_t source = 0;
      while (pick >= workers_[source]->core.sessions()) {
        pick -= workers_[source]->core.sessions();
        ++source;
      }
      uint32_t delay = 0;
      if (options_.max_restore_delay_ticks > 0 &&
          plan_rng_.Bernoulli(options_.delayed_restore_prob)) {
        delay = static_cast<uint32_t>(
            1 + plan_rng_.NextBounded(options_.max_restore_delay_ticks));
        ++stats_.delayed_restores;
      }
      const size_t target = plan_rng_.NextBounded(num_workers);
      Worker& worker = *workers_[source];
      const uint64_t job_index = worker.core.tenant(pick);
      obs::Span span(tracer, track, "fleet.chaos.evict", job_index);
      if (ring != nullptr) {
        ring->Record(obs::kFlightEvict, static_cast<uint32_t>(source),
                     job_index, delay);
      }
      workers_[target]->incoming.push_back(checkpoint(worker, pick, delay));
      ++stats_.evictions;
    }
  }

  // ---- shard rebalance --------------------------------------------------
  if (num_workers > 1 && plan_rng_.Bernoulli(options_.rebalance_prob)) {
    rebalance_scratch_.clear();
    for (auto& worker : workers_) {
      rebalance_scratch_.insert(rebalance_scratch_.end(),
                                worker->waiting.begin(),
                                worker->waiting.end());
      worker->waiting.clear();
    }
    if (rebalance_scratch_.empty()) {
      ++stats_.noop_faults;
    } else {
      obs::Span span(tracer, track, "fleet.chaos.rebalance",
                     static_cast<uint64_t>(rebalance_scratch_.size()));
      size_t target = plan_rng_.NextBounded(num_workers);
      if (ring != nullptr) {
        ring->Record(obs::kFlightRebalance, static_cast<uint32_t>(target),
                     rebalance_scratch_.size());
      }
      for (size_t job_index : rebalance_scratch_) {
        workers_[target]->waiting.push_back(job_index);
        target = (target + 1) % num_workers;
      }
      ++stats_.rebalances;
    }
  }

  for (const auto& worker : workers_) {
    if (worker->core.live() > 0 || !worker->waiting.empty() ||
        !worker->incoming.empty()) {
      return true;
    }
  }
  return false;
}

std::vector<RunResult> ChaosFleetRunner::RunAll(
    std::span<const FleetJob> jobs) {
  std::vector<RunResult> results(jobs.size());
  const size_t num_workers = workers_.size();
  const ChaosStats before = stats();  // stats are cumulative; absorb a delta

  if (obs::kEnabled && options_.slo != nullptr) {
    options_.slo->Bind(jobs.size(), num_workers);
  }
  coord_ring_ = nullptr;
  if (obs::kEnabled && options_.recorder != nullptr) {
    coord_ring_ = options_.recorder->Ring("chaos.coord");
  }

  for (size_t j = 0; j < jobs.size(); ++j) {
    RRS_CHECK(jobs[j].kind == FleetJob::Kind::kReplay)
        << "ChaosFleetRunner supports replay jobs only";
    RRS_CHECK(!jobs[j].options.record_schedule)
        << "recording runs cannot be checkpointed";
    workers_[j % num_workers]->waiting.push_back(j);
  }

  bool more = !jobs.empty();
  while (more) {
    if (options_.pool == nullptr || num_workers == 1) {
      for (auto& worker : workers_) TickWorker(*worker, jobs, results);
    } else {
      ParallelFor(*options_.pool, 0, static_cast<int64_t>(num_workers),
                  [&](int64_t w) {
                    TickWorker(*workers_[static_cast<size_t>(w)], jobs,
                               results);
                  });
    }
    more = InjectFaults();
  }

  if (options_.scope != nullptr) {
    const ChaosStats total = stats();
    const std::pair<std::string_view, uint64_t> counters[] = {
        {"fleet.chaos.ticks", total.ticks - before.ticks},
        {"fleet.chaos.kills", total.kills - before.kills},
        {"fleet.chaos.evictions", total.evictions - before.evictions},
        {"fleet.chaos.delayed_restores",
         total.delayed_restores - before.delayed_restores},
        {"fleet.chaos.rebalances", total.rebalances - before.rebalances},
        {"fleet.chaos.restores", total.restores - before.restores},
        {"fleet.chaos.migrations", total.migrations - before.migrations},
        {"fleet.chaos.noop_faults", total.noop_faults - before.noop_faults},
        {"fleet.chaos.snapshot_words",
         total.snapshot_words - before.snapshot_words},
        {"fleet.chaos.sessions_completed",
         total.sessions_completed - before.sessions_completed},
        {"fleet.chaos.rounds_stepped",
         total.rounds_stepped - before.rounds_stepped},
    };
    options_.scope->AbsorbCounters(counters);
    if (obs::kEnabled && options_.slo != nullptr) {
      options_.slo->AbsorbInto(*options_.scope);
    }
  }
  return results;
}

ChaosStats ChaosFleetRunner::stats() const {
  ChaosStats total = stats_;
  for (const auto& worker : workers_) {
    total.MergeFrom(worker->stats);
    const FleetStats core = worker->core.stats();
    total.sessions_completed += core.sessions_completed;
    total.rounds_stepped += core.rounds_stepped;
  }
  return total;
}

}  // namespace fleet
}  // namespace rrs
