#include "fleet/fleet_runner.h"

#include <algorithm>
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

void FleetStats::MergeFrom(const FleetStats& other) {
  sessions_completed += other.sessions_completed;
  rounds_stepped += other.rounds_stepped;
  sessions_created += other.sessions_created;
  sessions_recycled += other.sessions_recycled;
  peak_live_sessions = std::max(peak_live_sessions, other.peak_live_sessions);
  ticks += other.ticks;
  batched_sessions += other.batched_sessions;
  fallback_sessions += other.fallback_sessions;
  lane_rounds_stepped += other.lane_rounds_stepped;
  slab_rounds_stepped += other.slab_rounds_stepped;
}

// Shard-local state: the tenant lifecycle core plus the pipeline pool.
// Owned and touched by exactly one worker per RunAll (shard → worker
// affinity), so nothing here is synchronized.
struct FleetRunner::Shard {
  Shard(const FleetOptions& options, size_t index)
      : core([&] {
          TickCoreOptions core;
          core.policy_factory = options.policy_factory;
          core.rounds_per_tick = options.rounds_per_tick;
          core.batch_width = options.batch_width;
          core.shard = index;
          core.slo = options.slo;
          if (options.recorder != nullptr) {
            core.ring =
                options.recorder->Ring("fleet.shard" + std::to_string(index));
          }
          core.scope = options.scope;
          core.trace_label = options.trace_label;
          return core;
        }()),
        pipeline_pool([&options] {
          return std::make_unique<reduce::PipelineSession>(
              options.pipeline_params);
        }) {}

  TickCore core;
  SessionPool<reduce::PipelineSession> pipeline_pool;
  // A pipeline tenant's drops folded from the inner run's subcolors onto
  // its own colors, for the SLO tracker; reused across tenants.
  std::vector<uint64_t> pipeline_drops;
};

FleetRunner::FleetRunner(FleetOptions options) : options_(std::move(options)) {
  if (!options_.policy_factory) {
    const DlruEdfPolicy::Params params;
    options_.policy_factory = [params] {
      return std::make_unique<DlruEdfPolicy>(params);
    };
  }
  size_t shards = options_.num_shards;
  if (shards == 0) {
    shards = options_.pool != nullptr
                 ? std::max<size_t>(1, options_.pool->thread_count())
                 : 1;
  }
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options_, s));
  }
}

FleetRunner::~FleetRunner() = default;

void FleetRunner::RunShard(Shard& shard, std::span<const FleetJob> jobs,
                           std::span<RunResult> results, size_t shard_index,
                           size_t stride) {
  TickCore& core = shard.core;
  RRS_CHECK_EQ(core.live(), 0u);
  ResultSink sink(results);
  obs::Tracer* tracer =
      options_.scope != nullptr ? options_.scope->tracer() : nullptr;
  obs::TraceTrack* track = tracer != nullptr ? tracer->ThreadTrack() : nullptr;

  size_t next = shard_index;  // this shard's jobs: shard_index + k * stride
  while (next < jobs.size() || core.live() > 0) {
    // Admit waiting tenants up to the live cap; lanes count one-for-one.
    for (; next < jobs.size() && (options_.max_live_sessions == 0 ||
                                  core.live() < options_.max_live_sessions);
         next += stride) {
      const FleetJob& job = jobs[next];
      if (job.kind == FleetJob::Kind::kReplay) {
        core.Admit(next, job);
        continue;
      }
      // Pipeline tenants run to completion on admission (the pipeline's
      // transform → run → project → validate chain has no round-bucket
      // seam), through a pooled session so the inner engine stays warm.
      RRS_CHECK(job.instance != nullptr);
      auto session = shard.pipeline_pool.Acquire();
      RunResult& out = results[next];
      {
        obs::Span span(tracer, track, options_.trace_label,
                       static_cast<uint64_t>(next));
        const reduce::PipelineResult& pipe =
            session->SolveOnline(*job.instance, job.options);
        out.cost = pipe.validation.cost;
        out.arrived = job.instance->num_jobs();
        out.executed = out.arrived - out.cost.drops;
        out.rounds_simulated = pipe.inner.rounds_simulated;
        out.drops_per_color = pipe.inner.drops_per_color;
        out.telemetry = pipe.inner.telemetry;
        // The result keeps the inner run's per-subcolor drops; the tracker
        // classes misses by the tenant's own delay bounds.
        shard.pipeline_drops.assign(job.instance->num_colors(), 0);
        for (size_t c = 0; c < pipe.inner.drops_per_color.size(); ++c) {
          shard.pipeline_drops[pipe.distribute.base_of[c]] +=
              pipe.inner.drops_per_color[c];
        }
      }
      shard.pipeline_pool.Release(std::move(session));
      core.Complete(next, *job.instance, out, shard.pipeline_drops);
    }
    core.Step(sink);
  }

  // Pipeline-only workloads finish inside admission without ever reaching
  // the tick barrier; a final publish makes their accounting scrapable too.
  if (obs::kEnabled && options_.slo != nullptr) {
    options_.slo->Publish(shard_index);
  }
}

std::vector<RunResult> FleetRunner::RunAll(std::span<const FleetJob> jobs) {
  std::vector<RunResult> results(jobs.size());
  const size_t stride = shards_.size();
  const FleetStats before = stats();  // stats are cumulative; absorb a delta

  if (obs::kEnabled && options_.slo != nullptr) {
    options_.slo->Bind(jobs.size(), shards_.size());
  }

  if (options_.pool == nullptr || shards_.size() == 1) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      RunShard(*shards_[s], jobs, results, s, stride);
    }
  } else {
    ParallelFor(*options_.pool, 0, static_cast<int64_t>(shards_.size()),
                [&](int64_t s) {
                  RunShard(*shards_[static_cast<size_t>(s)], jobs, results,
                           static_cast<size_t>(s), stride);
                });
  }

  if (options_.scope != nullptr) {
    const FleetStats total = stats();
    const std::pair<std::string_view, uint64_t> counters[] = {
        {"fleet.sessions_completed",
         total.sessions_completed - before.sessions_completed},
        {"fleet.rounds_stepped", total.rounds_stepped - before.rounds_stepped},
        {"fleet.ticks", total.ticks - before.ticks},
        {"fleet.batch.sessions",
         total.batched_sessions - before.batched_sessions},
        {"fleet.batch.fallback",
         total.fallback_sessions - before.fallback_sessions},
        {"fleet.batch.lane_rounds",
         total.lane_rounds_stepped - before.lane_rounds_stepped},
        {"fleet.batch.slab_rounds",
         total.slab_rounds_stepped - before.slab_rounds_stepped},
    };
    options_.scope->AbsorbCounters(counters);
  }
  return results;
}

FleetStats FleetRunner::stats() const {
  FleetStats total;
  for (const auto& shard : shards_) {
    FleetStats stats = shard->core.stats();
    stats.sessions_created += shard->pipeline_pool.created();
    stats.sessions_recycled += shard->pipeline_pool.recycled();
    total.MergeFrom(stats);
  }
  return total;
}

}  // namespace fleet
}  // namespace rrs
