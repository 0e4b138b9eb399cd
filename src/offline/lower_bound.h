// Certified lower bounds on the optimal offline cost, used as ratio
// denominators where the exact solver is out of reach (experiment E4).
//
//   LB_drop   = DropCost_ParEDF(σ, m)        (Lemma 3.7: Par-EDF drops lower-
//               bound any m-resource algorithm's drops, and drop cost lower-
//               bounds total cost)
//   LB_color  = Σ_ℓ min(Δ, #jobs of ℓ)       (every color with jobs either
//               gets configured at least once — one reconfiguration, cost Δ —
//               or all its jobs drop; the argument of Lemma 3.1 /
//               Corollary 3.3)
//   LowerBound = max(LB_drop, LB_color)
//
// Both legs hold for every schedule with m resources, so the max does too.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/cost.h"
#include "core/instance.h"

namespace rrs {
namespace workload {
class UncertainInstance;
}  // namespace workload

namespace offline {

uint64_t DropLowerBound(const Instance& instance, uint32_t m);
uint64_t ColorLowerBound(const Instance& instance, const CostModel& model);
uint64_t LowerBound(const Instance& instance, uint32_t m,
                    const CostModel& model);

// Minimum number of drops forced by a single color's pending-deadline
// profile when that color owns all m resources and reconfiguration is free —
// the capacity-m relaxation behind the offline search's admissible per-state
// bound (a per-profile generalization of the Par-EDF drop leg above).
//
// The profile is `buckets` entries of kStride words: the relative deadline
// (strictly ascending; a job at relative deadline r has exactly r execution
// slots left) at word 0 and its count at word `count_at`. By Hall's
// condition the forced drops are max_i(cum_i − m·rel_i)⁺ over the bucket
// prefixes, and EDF achieves that. The same pass also totals the counts.
struct RelaxedDrops {
  uint64_t drops = 0;
  uint64_t pending = 0;
};

template <size_t kStride>
inline RelaxedDrops StridedRelaxedDrops(const uint32_t* rle, size_t buckets,
                                        uint32_t m, size_t count_at = 1) {
  RelaxedDrops out;
  for (size_t i = 0; i < buckets; ++i) {
    const uint64_t rel = rle[kStride * i];
    out.pending += rle[kStride * i + count_at];
    const uint64_t capacity = rel * m;
    if (out.pending > capacity) {
      out.drops = std::max(out.drops, out.pending - capacity);
    }
  }
  return out;
}

// The bound over interleaved (relative deadline, count) pairs.
inline uint64_t CapacityRelaxedDrops(std::span<const uint32_t> rle,
                                     uint32_t m) {
  return StridedRelaxedDrops<2>(rle.data(), rle.size() / 2, m).drops;
}

// The same bound over one envelope of an *interval* profile (interleaved
// (rel, lo, hi) triples, see offline/interval_state.h): `pessimistic`
// selects the hi counts, otherwise lo. Admissible for the corresponding
// envelope instance by the argument above.
inline uint64_t CapacityRelaxedDropsEnvelope(std::span<const uint32_t> rle3,
                                             uint32_t m, bool pessimistic) {
  return StridedRelaxedDrops<3>(rle3.data(), rle3.size() / 3, m,
                                pessimistic ? 2 : 1)
      .drops;
}

// Generalization of LowerBound to an interval-uncertainty set: every
// concrete trace in the set is a superset of the forced (zero-width-window)
// sub-instance, and OPT is monotone under adding jobs, so the forced
// instance's bound lower-bounds OPT of every member trace.
uint64_t RobustLowerBound(const workload::UncertainInstance& set, uint32_t m,
                          const CostModel& model);

}  // namespace offline
}  // namespace rrs
