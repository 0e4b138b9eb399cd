// Per-tenant SLO tracking for the fleet runners.
//
// Each tenant gets a miss budget (dropped jobs are deadline misses in this
// model: a job is dropped exactly when its delay bound expires unexecuted)
// over rolling windows of `window_rounds` simulated rounds. The runners feed
// the tracker at tick barriers — one Observe per live tenant per tick with
// the session's cumulative (rounds, misses), one Finish when the tenant
// completes — and Publish a shard's aggregate once per tick.
//
// One shard per tenant: every Observe, Finish and Retire of a tenant names
// the same shard for the tracker's whole Bind. FleetRunner feeds tenant j on
// shard j % num_shards, and the dist controller feeds every tenant on shard
// 0 at its barrier, so no tenant moves between shards. A tenant's slot and
// worst-burn entry therefore live with its one shard.
//
// Determinism contract: all accounting happens at tick barriers on the
// tenant's shard, and every quantity is a pure function of the tenant's
// observation sequence. Since shard assignment and tick schedules are
// thread-count-invariant, the entire SLO state — including which window a
// miss lands in — is bit-identical at any thread count. Scrapes never
// mutate: they read the per-shard snapshots copied at the last Publish,
// under that shard's mutex. A scrape may run while Bind grows the shard
// table (a runner's next RunAll, the dist controller's AddJobs), so the
// table itself sits behind one structure lock, which Bind and the scrape
// side take and Observe and Publish do not.
//
// The tracker owns its series alone: the live Prometheus section (totals
// and per shard), /tenants and SnapshotTotals. Runners do not copy them
// into an obs::Scope, so a page that serves a scope and the tracker's
// section carries each rrs_fleet_slo_* family once.
//
// Hot-path cost: Observe touches one tenant slot and one shard accumulator
// block (both shard-owned between barriers — no atomics, no locks) and
// allocates nothing after Bind. Sum-over-shards == fleet totals holds by
// construction: totals are computed by summing the same published shard
// snapshots a scraper reads per shard.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/instance.h"
#include "obs/metrics.h"

namespace rrs {
namespace fleet {

struct SloOptions {
  // Rolling window length in simulated rounds. Misses observed in a tick
  // are attributed to the tenant's window current at that tick barrier.
  Round window_rounds = 256;
  // Allowed misses per tenant per window; exceeding it marks the window
  // (and the tenant, until the window rolls) budget-exhausted.
  uint64_t miss_budget = 8;
  // Worst-burn tenants retained per shard for /tenants and fleet_top.
  uint32_t top_k = 16;
};

class SloTracker {
 public:
  // One tenant on a shard's worst-burn list. burn = window_misses / budget
  // (> 1 means the current window is over budget).
  struct TenantBurn {
    uint64_t tenant = 0;
    uint64_t window_misses = 0;
    double burn = 0.0;
  };

  // Copy of one shard's aggregate as of its last Publish. Also the shape of
  // fleet totals (SnapshotTotals sums these, merging the top lists).
  struct Snapshot {
    uint64_t observations = 0;     // Observe calls
    uint64_t rounds = 0;           // tenant-rounds observed
    uint64_t misses = 0;           // misses observed
    uint64_t windows_closed = 0;
    uint64_t windows_breached = 0; // closed or current windows over budget
    uint64_t exhausted_events = 0; // budget-exhaustion transitions
    uint64_t tenants_seen = 0;     // distinct tenants observed
    uint64_t tenants_finished = 0;
    // Tenants whose current window is over budget.
    uint64_t tenants_out_of_budget = 0;
    obs::LogHistogram miss_delay;  // misses by delay class (delay bound)
    std::vector<TenantBurn> top;   // worst burn first
  };

  explicit SloTracker(SloOptions options = SloOptions());
  ~SloTracker();

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  const SloOptions& options() const { return options_; }
  size_t num_shards() const { return shards_.size(); }

  // Sizes (grow-only) and resets all state for a fleet of `num_tenants`
  // jobs over `num_shards` shards/workers. Serial; runners call it at the
  // top of RunAll.
  void Bind(size_t num_tenants, size_t num_shards);

  // Folds one tenant's progress into its current window. `rounds`/`misses`
  // are the session's cumulative values (the tracker keeps last-seen marks
  // and works on deltas, so checkpointed/migrated tenants just keep
  // counting). Returns how many budget exhaustions this observation newly
  // triggered (0 or 1) — the runner's cue to drop a flight-recorder event.
  uint32_t Observe(size_t shard, size_t tenant, uint64_t rounds,
                   uint64_t misses);

  // Final accounting when a tenant completes: catches up on progress since
  // the last barrier, closes the partial window, retires the tenant from
  // the worst-burn list (the list is a live view of current burners;
  // counters and the histogram keep the history), and folds
  // `drops_per_color` — the run's drops per color of `instance` — into the
  // shard's miss-by-delay-class histogram (delay bound = the color's delay
  // class). Returns newly-triggered exhaustions, like Observe.
  uint32_t Finish(size_t shard, size_t tenant, const Instance& instance,
                  const RunResult& result,
                  std::span<const uint64_t> drops_per_color);

  // Retires a tenant that leaves without completing (a shed tenant): closes
  // its partial window and drops it from the worst-burn list, as Finish
  // does, but counts it neither finished nor in the miss-by-delay-class
  // histogram. Observe its progress up to the cut first.
  void Retire(size_t shard, size_t tenant);

  // Copies the shard's accumulators into its published (scrape-visible)
  // snapshot. Runners call this once per tick, at the barrier.
  void Publish(size_t shard);

  // ---- Scrape side (thread-safe against Publish) --------------------------

  Snapshot SnapshotShard(size_t shard) const;
  // Sum of all published shard snapshots; top lists merged and re-ranked.
  Snapshot SnapshotTotals() const;

  // Prometheus text section: rrs_fleet_slo_* totals plus the same series
  // with a shard="i" label per shard. Appended to the export server's
  // /metrics via AddMetricsSection.
  std::string RenderPrometheus(std::string_view prefix = "rrs") const;

  // Top-K (across shards) per-tenant SLO state as a JSON array — the
  // /tenants endpoint. `limit` 0 means options().top_k.
  std::string TenantsJson(uint32_t limit = 0) const;

 private:
  struct TenantSlot;
  struct ShardState;

  // Every shard's published snapshot, copied under the structure lock: the
  // one read the scrape side makes.
  std::vector<Snapshot> PublishedShards() const;

  uint32_t ObserveImpl(size_t shard, size_t tenant, uint64_t rounds,
                       uint64_t misses, bool update_top);
  void UpdateTop(ShardState& shard, TenantSlot& slot, uint64_t tenant,
                 uint64_t window_misses);
  void RecomputeTopWeakest(ShardState& shard);

  SloOptions options_;
  std::vector<TenantSlot> tenants_;
  // Guards the growth of shards_ (Bind) against the scrape side's reads of
  // it; each shard's own mutex still guards its published snapshot.
  mutable std::mutex structure_mutex_;
  std::vector<std::unique_ptr<ShardState>> shards_;
};

}  // namespace fleet
}  // namespace rrs
