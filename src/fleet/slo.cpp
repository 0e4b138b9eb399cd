#include "fleet/slo.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"

namespace rrs {
namespace fleet {

// Per-tenant rolling-window state. Written only by the tenant's shard.
struct SloTracker::TenantSlot {
  uint64_t last_rounds = 0;   // cumulative marks: Observe works on deltas
  uint64_t last_misses = 0;
  uint64_t window_start = 0;  // rounds value at the current window's open
  uint64_t window_misses = 0;
  bool seen = false;
  bool exhausted = false;
  // On its shard's worst-burn list. Lets UpdateTop skip its linear scan for
  // the common tenant that has no current-window misses and is not listed —
  // the dominant UpdateTop call at fleet scale.
  bool in_top = false;
};

struct SloTracker::ShardState {
  // Accumulators: owned by the shard's worker between barriers, no locks.
  // `acc.top` is the live worst-burn list (unsorted; Publish ranks it).
  Snapshot acc;
  // Conservative lower bound on the fewest window_misses of any acc.top
  // entry while the list is full: a non-member with window_misses <= this
  // cannot displace anyone, so UpdateTop rejects it with one compare
  // instead of two scans. Kept <= the true minimum (exact after structural
  // changes, clamped down on in-place decreases), which only ever costs an
  // occasional redundant scan, never a wrong reject.
  uint64_t top_weakest = 0;
  // Guards `published` only: Publish copies under it, scrapers read under
  // it. The accumulators never need it (single owner per tick).
  mutable std::mutex mutex;
  Snapshot published;
};

SloTracker::SloTracker(SloOptions options) : options_(options) {
  RRS_CHECK_GE(options_.window_rounds, 1);
  RRS_CHECK_GE(options_.miss_budget, 1u);
  RRS_CHECK_GE(options_.top_k, 1u);
}

SloTracker::~SloTracker() = default;

void SloTracker::Bind(size_t num_tenants, size_t num_shards) {
  if (tenants_.size() < num_tenants) tenants_.resize(num_tenants);
  std::fill(tenants_.begin(), tenants_.end(), TenantSlot());
  std::lock_guard<std::mutex> structure(structure_mutex_);
  while (shards_.size() < num_shards) {
    shards_.push_back(std::make_unique<ShardState>());
  }
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->acc = Snapshot();
    shard->acc.top.reserve(options_.top_k);
    shard->top_weakest = 0;
    shard->published = Snapshot();
    shard->published.top.reserve(options_.top_k);
  }
}

namespace {

double Burn(uint64_t window_misses, uint64_t budget) {
  return static_cast<double>(window_misses) / static_cast<double>(budget);
}

}  // namespace

void SloTracker::UpdateTop(ShardState& shard, TenantSlot& slot,
                           uint64_t tenant, uint64_t window_misses) {
  auto& top = shard.acc.top;
  if (slot.in_top) {
    // A listed tenant is on this shard's list: tenants never change shards.
    auto listed = std::find_if(top.begin(), top.end(),
                               [tenant](const TenantBurn& entry) {
                                 return entry.tenant == tenant;
                               });
    RRS_DCHECK(listed != top.end());
    listed->window_misses = window_misses;
    listed->burn = Burn(window_misses, options_.miss_budget);
    shard.top_weakest = std::min(shard.top_weakest, window_misses);
    return;
  }
  // Fast paths: an unlisted tenant with nothing to report, or (list full)
  // not enough misses to displace the weakest member.
  if (window_misses == 0) return;
  if (top.size() >= options_.top_k && window_misses <= shard.top_weakest) {
    return;
  }
  const TenantBurn entry{tenant, window_misses,
                         Burn(window_misses, options_.miss_budget)};
  if (top.size() < options_.top_k) {
    top.push_back(entry);
    slot.in_top = true;
    if (top.size() == options_.top_k) RecomputeTopWeakest(shard);
    return;
  }
  // Replace the weakest entry (fewest misses; ties go to the larger tenant
  // id so low ids are stable) when strictly beaten — deterministic because
  // the shard's observation sequence is.
  size_t weakest = 0;
  for (size_t i = 1; i < top.size(); ++i) {
    if (top[i].window_misses < top[weakest].window_misses ||
        (top[i].window_misses == top[weakest].window_misses &&
         top[i].tenant > top[weakest].tenant)) {
      weakest = i;
    }
  }
  if (top[weakest].window_misses < window_misses) {
    tenants_[top[weakest].tenant].in_top = false;
    top[weakest] = entry;
    slot.in_top = true;
    RecomputeTopWeakest(shard);
  }
}

void SloTracker::RecomputeTopWeakest(ShardState& shard) {
  uint64_t weakest = ~uint64_t{0};
  for (const TenantBurn& entry : shard.acc.top) {
    weakest = std::min(weakest, entry.window_misses);
  }
  shard.top_weakest = weakest;
}

uint32_t SloTracker::Observe(size_t shard_index, size_t tenant,
                             uint64_t rounds, uint64_t misses) {
  return ObserveImpl(shard_index, tenant, rounds, misses, /*update_top=*/true);
}

uint32_t SloTracker::ObserveImpl(size_t shard_index, size_t tenant,
                                 uint64_t rounds, uint64_t misses,
                                 bool update_top) {
  TenantSlot& slot = tenants_[tenant];
  ShardState& shard = *shards_[shard_index];
  if (!slot.seen) {
    slot.seen = true;
    ++shard.acc.tenants_seen;
  }
  const uint64_t delta_rounds = rounds - slot.last_rounds;
  const uint64_t delta_misses = misses - slot.last_misses;
  slot.last_rounds = rounds;
  slot.last_misses = misses;
  ++shard.acc.observations;
  shard.acc.rounds += delta_rounds;
  shard.acc.misses += delta_misses;
  slot.window_misses += delta_misses;

  uint32_t newly_exhausted = 0;
  if (!slot.exhausted && slot.window_misses > options_.miss_budget) {
    slot.exhausted = true;
    ++shard.acc.windows_breached;
    ++shard.acc.exhausted_events;
    ++shard.acc.tenants_out_of_budget;
    newly_exhausted = 1;
  }
  // Roll windows the tick crossed. Misses observed this tick were already
  // attributed to the window current at the barrier — windows are a
  // tick-granular bucketing, which is what keeps accounting deterministic.
  const uint64_t window = static_cast<uint64_t>(options_.window_rounds);
  bool rolled = false;
  while (rounds - slot.window_start >= window) {
    slot.window_start += window;
    ++shard.acc.windows_closed;
    slot.window_misses = 0;
    rolled = true;
    if (slot.exhausted) {
      slot.exhausted = false;
      --shard.acc.tenants_out_of_budget;
    }
  }
  // An unchanged window_misses means any list entry is already correct.
  // Finish's catch-up passes update_top=false: the tenant retires from the
  // list immediately after, so maintaining it here is churn.
  if (update_top && (delta_misses != 0 || rolled)) {
    UpdateTop(shard, slot, tenant, slot.window_misses);
  }
  return newly_exhausted;
}

uint32_t SloTracker::Finish(size_t shard_index, size_t tenant,
                            const Instance& instance, const RunResult& result,
                            std::span<const uint64_t> drops_per_color) {
  // Catch up on any progress since the last barrier, then retire.
  const uint32_t newly_exhausted =
      ObserveImpl(shard_index, tenant,
                  static_cast<uint64_t>(result.rounds_simulated),
                  result.cost.drops, /*update_top=*/false);
  Retire(shard_index, tenant);
  ShardState& shard = *shards_[shard_index];
  ++shard.acc.tenants_finished;
  if (result.cost.drops != 0) {
    for (size_t c = 0;
         c < drops_per_color.size() && c < instance.num_colors(); ++c) {
      const uint64_t count = drops_per_color[c];
      if (count == 0) continue;
      const uint64_t delay_class =
          static_cast<uint64_t>(instance.delay_bound(static_cast<ColorId>(c)));
      shard.acc.miss_delay.RecordMany(delay_class, count);
    }
  }
  return newly_exhausted;
}

void SloTracker::Retire(size_t shard_index, size_t tenant) {
  TenantSlot& slot = tenants_[tenant];
  ShardState& shard = *shards_[shard_index];
  // Close the partial window the run ended inside.
  if (slot.last_rounds > slot.window_start) {
    ++shard.acc.windows_closed;
  }
  slot.window_start = slot.last_rounds;
  if (slot.exhausted) {
    slot.exhausted = false;
    --shard.acc.tenants_out_of_budget;
  }
  slot.window_misses = 0;
  // Retire from the worst-burn list: the list is a live view of current
  // burners, and this tenant is leaving. For a tenant whose whole life was
  // one Finish (short sessions at fleet scale), no list work happens at
  // all.
  if (slot.in_top) {
    auto& top = shard.acc.top;
    for (size_t i = 0; i < top.size(); ++i) {
      if (top[i].tenant == tenant) {
        top[i] = top.back();
        top.pop_back();
        break;
      }
    }
    slot.in_top = false;
  }
}

void SloTracker::Publish(size_t shard_index) {
  ShardState& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.published = shard.acc;
  std::sort(shard.published.top.begin(), shard.published.top.end(),
            [](const TenantBurn& a, const TenantBurn& b) {
              if (a.window_misses != b.window_misses) {
                return a.window_misses > b.window_misses;
              }
              return a.tenant < b.tenant;
            });
}

SloTracker::Snapshot SloTracker::SnapshotShard(size_t shard_index) const {
  std::lock_guard<std::mutex> structure(structure_mutex_);
  const ShardState& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.published;
}

std::vector<SloTracker::Snapshot> SloTracker::PublishedShards() const {
  std::lock_guard<std::mutex> structure(structure_mutex_);
  std::vector<Snapshot> shards;
  shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shards.push_back(shard->published);
  }
  return shards;
}

namespace {

void SumInto(SloTracker::Snapshot& total, const SloTracker::Snapshot& shard) {
  total.observations += shard.observations;
  total.rounds += shard.rounds;
  total.misses += shard.misses;
  total.windows_closed += shard.windows_closed;
  total.windows_breached += shard.windows_breached;
  total.exhausted_events += shard.exhausted_events;
  total.tenants_seen += shard.tenants_seen;
  total.tenants_finished += shard.tenants_finished;
  total.tenants_out_of_budget += shard.tenants_out_of_budget;
  total.miss_delay.Merge(shard.miss_delay);
  total.top.insert(total.top.end(), shard.top.begin(), shard.top.end());
}

void RankTop(std::vector<SloTracker::TenantBurn>& top, uint32_t limit) {
  std::sort(top.begin(), top.end(),
            [](const SloTracker::TenantBurn& a,
               const SloTracker::TenantBurn& b) {
              if (a.window_misses != b.window_misses) {
                return a.window_misses > b.window_misses;
              }
              return a.tenant < b.tenant;
            });
  if (top.size() > limit) top.resize(limit);
}

}  // namespace

SloTracker::Snapshot SloTracker::SnapshotTotals() const {
  Snapshot total;
  for (const Snapshot& shard : PublishedShards()) SumInto(total, shard);
  RankTop(total.top, options_.top_k);
  return total;
}

std::string SloTracker::RenderPrometheus(std::string_view prefix) const {
  // One consistent copy per shard; totals are the sum of exactly these
  // copies, so a scrape's per-shard series always add up to its totals.
  const std::vector<Snapshot> shards = PublishedShards();
  Snapshot total;
  for (const Snapshot& shard : shards) SumInto(total, shard);
  RankTop(total.top, options_.top_k);

  std::string out;
  auto series = [&](const char* name, const char* type, const char* help,
                    auto value_of) {
    const std::string metric = obs::PromMetricName(prefix, name);
    out += "# HELP " + metric + " " + help + "\n";
    out += "# TYPE " + metric + " " + type + "\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value_of(total));
    out += metric + " " + buf + "\n";
    for (size_t s = 0; s < shards.size(); ++s) {
      std::snprintf(buf, sizeof(buf), "%.17g", value_of(shards[s]));
      out += metric + "{shard=\"" + std::to_string(s) + "\"} " + buf + "\n";
    }
  };
  auto u = [](uint64_t v) { return static_cast<double>(v); };
  series("fleet.slo.observations", "counter", "SLO tick observations",
         [&](const Snapshot& s) { return u(s.observations); });
  series("fleet.slo.rounds", "counter", "tenant-rounds observed",
         [&](const Snapshot& s) { return u(s.rounds); });
  series("fleet.slo.misses", "counter", "deadline misses (drops) observed",
         [&](const Snapshot& s) { return u(s.misses); });
  series("fleet.slo.windows_closed", "counter", "rolling windows closed",
         [&](const Snapshot& s) { return u(s.windows_closed); });
  series("fleet.slo.windows_breached", "counter", "windows over miss budget",
         [&](const Snapshot& s) { return u(s.windows_breached); });
  series("fleet.slo.exhausted_events", "counter",
         "budget exhaustion transitions",
         [&](const Snapshot& s) { return u(s.exhausted_events); });
  series("fleet.slo.tenants_seen", "counter", "distinct tenants observed",
         [&](const Snapshot& s) { return u(s.tenants_seen); });
  series("fleet.slo.tenants_finished", "counter", "tenants completed",
         [&](const Snapshot& s) { return u(s.tenants_finished); });
  series("fleet.slo.tenants_out_of_budget", "gauge",
         "tenants whose current window is over budget",
         [&](const Snapshot& s) {
           return static_cast<double>(s.tenants_out_of_budget);
         });
  series("fleet.slo.worst_burn", "gauge", "worst current-window burn rate",
         [&](const Snapshot& s) {
           return s.top.empty() ? 0.0 : s.top.front().burn;
         });

  const std::string metric =
      obs::PromMetricName(prefix, "fleet.slo.miss_delay");
  out += "# HELP " + metric + " misses by delay class (delay bound)\n";
  out += "# TYPE " + metric + " summary\n";
  char buf[64];
  for (double q : {0.5, 0.9, 0.99}) {
    std::snprintf(buf, sizeof(buf), "%.6g", q);
    out += metric + "{quantile=\"" + buf + "\"} ";
    std::snprintf(buf, sizeof(buf), "%.6g", total.miss_delay.Quantile(q));
    out += std::string(buf) + "\n";
  }
  out += metric + "_sum " + std::to_string(total.miss_delay.sum()) + "\n";
  out += metric + "_count " + std::to_string(total.miss_delay.count()) + "\n";
  return out;
}

std::string SloTracker::TenantsJson(uint32_t limit) const {
  if (limit == 0) limit = options_.top_k;
  struct Entry {
    size_t shard;
    TenantBurn burn;
  };
  std::vector<Entry> entries;
  const std::vector<Snapshot> shards = PublishedShards();
  for (size_t s = 0; s < shards.size(); ++s) {
    for (const TenantBurn& burn : shards[s].top) entries.push_back({s, burn});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                               const Entry& b) {
    if (a.burn.window_misses != b.burn.window_misses) {
      return a.burn.window_misses > b.burn.window_misses;
    }
    return a.burn.tenant < b.burn.tenant;
  });
  if (entries.size() > limit) entries.resize(limit);

  std::string out = "[";
  char buf[64];
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::snprintf(buf, sizeof(buf), "%.6g", e.burn.burn);
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"tenant\": " + std::to_string(e.burn.tenant) +
           ", \"shard\": " + std::to_string(e.shard) +
           ", \"window_misses\": " + std::to_string(e.burn.window_misses) +
           ", \"burn\": " + buf + "}";
  }
  out += entries.empty() ? "]\n" : "\n]\n";
  return out;
}

}  // namespace fleet
}  // namespace rrs
