// Streaming arrival generators: the online counterpart of a materialized
// Instance.
//
// The paper's model is inherently streaming — request k is revealed only at
// round k's arrival phase — but historically every layer of the repo was fed
// from an Instance whose whole job vector exists up front, making per-tenant
// memory O(total jobs) and ruling out workloads whose future depends on
// generator state. ArrivalSource is the round-by-round contract the engines
// consume instead:
//
//   - NextRound() emits the current round's arrivals as (color, count) runs
//     and advances the cursor. Zero counts are never emitted, and a source
//     that mirrors a materialized Instance emits runs in that instance's
//     within-round job order, so an engine pulling from the source assigns
//     the exact same dense JobIds and issues the exact same policy callbacks
//     as one replaying the Instance — results, snapshot bytes, and golden
//     trace digests are bit-identical (workload_source_test pins this).
//   - shape() is the static color table (delay bounds, drop costs, names) as
//     a jobless Instance, so policies, slab batching (LaneCompatible), and
//     pooling keep working unchanged. InstanceSource returns the full
//     backing Instance, preserving clairvoyant policies (sched/lookahead).
//   - num_request_rounds / horizon / max_backlog are the same derived stats
//     an Instance precomputes; engines use them to bound the round loop and
//     pre-size rings, keeping the zero-steady-state-allocation session
//     contract intact. They are computed once at construction by a dry
//     self-scan and the source is Reset() afterwards.
//   - Reset / SeekRound / SaveState / LoadState make the source a session
//     object: deterministic re-execution (Reset + replay) and O(state)
//     checkpoint/restore (the dist fleet migrates live tenants by shipping
//     engine words + source words; see fleet/dist/). A source's state is one
//     snapshot::kTagArrivalSource section.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/types.h"
#include "snapshot/codec.h"

namespace rrs {
namespace workload {

class ArrivalSource {
 public:
  // One per-round arrival run: `count` (> 0) jobs of one color.
  using Run = std::pair<ColorId, uint64_t>;

  // Stable family ids, used both as the snapshot-state discriminator (a
  // LoadState against a different family aborts) and as the wire family of
  // GeneratorSpec (workload/generator_spec.h). Ids 7-10 belonged to the
  // retired mix wrappers (time-shift, thin, concat, merge); checkpoint words
  // carry family ids, so they stay reserved and are never reused.
  enum class Family : uint64_t {
    kInstance = 0,
    kPoisson = 1,
    kBursty = 2,
    kZipf = 3,
    kRouter = 4,
    kDatacenter = 5,
    kMemctrl = 6,
    // reduce::OnlineSolver's push adapter (never shipped as a GeneratorSpec).
    kPush = 11,
  };

  virtual ~ArrivalSource() = default;

  virtual Family family() const = 0;

  // The static color table as an Instance. For InstanceSource this is the
  // full backing Instance (jobs included); generator sources return a
  // jobless shape.
  virtual const Instance& shape() const = 0;

  // Rounds with arrivals: last nonzero round + 1 (0 if the source emits
  // nothing). NextRound may only be called while cursor() is below this.
  Round num_request_rounds() const { return request_rounds_; }
  // Maximum deadline over all emitted jobs (0 if none) — the last round an
  // engine must simulate.
  Round horizon() const { return horizon_; }
  // Windowed-max arrivals over any D_c consecutive rounds, the ring
  // pre-sizing bound (see Instance::max_backlog).
  virtual uint32_t max_backlog(ColorId c) const {
    RRS_DCHECK(c < backlog_.size());
    return backlog_[c];
  }

  // The round the next NextRound() call emits.
  Round cursor() const { return cursor_; }

  // Rewinds to round 0, bit-identically to a fresh source with the same
  // configuration. Keeps buffers (session rule: no steady-state allocation
  // at a fixed shape).
  void Reset() {
    ResetImpl();
    cursor_ = 0;
  }

  // Emits round cursor()'s arrival runs and advances the cursor. The span is
  // valid until the next NextRound/Reset. Requires cursor() <
  // num_request_rounds().
  std::span<const Run> NextRound() {
    std::span<const Run> runs = EmitRound(cursor_);
    ++cursor_;
    return runs;
  }

  // Positions the cursor at min(r, num_request_rounds()): rewinds via Reset
  // if needed, then replays forward, discarding. InstanceSource overrides
  // with an O(1) seek. Engines call this when restoring a snapshot without
  // saved source state (deterministic re-execution); restores with saved
  // state use LoadState instead.
  virtual void SeekRound(Round r);

  // One kTagArrivalSource section: [family][cursor][family state].
  // LoadState requires an identically-configured source.
  void SaveState(snapshot::Writer& w) const;
  void LoadState(snapshot::Reader& r);

  // A fresh source with this source's configuration, reset to round 0.
  // Precomputed stats are copied, not re-scanned — the cheap prototype
  // factory the fleet benches use for per-tenant sources.
  virtual std::unique_ptr<ArrivalSource> Clone() const = 0;

 protected:
  // Rewind family state to round 0 (cursor_ handled by Reset()).
  virtual void ResetImpl() = 0;
  // Emit round k's runs; called exactly once per round in ascending order.
  virtual std::span<const Run> EmitRound(Round k) = 0;
  // Family state beyond the cursor, inside the kTagArrivalSource section.
  // LoadBody runs with cursor_ already set to the loaded cursor.
  virtual void SaveBody(snapshot::Writer&) const {}
  virtual void LoadBody(snapshot::Reader&) {}

  // Computes request_rounds_/horizon_/backlog_ by replaying rounds
  // [0, raw_rounds) against shape()'s delay bounds, then Reset()s. Concrete
  // sources call this at the end of construction; raw_rounds is the
  // generator's configured round count (trailing all-zero rounds are
  // trimmed, matching what InstanceBuilder::Build derives from the jobs).
  void FinishInit(Round raw_rounds);
  Round cursor_ = 0;
  Round request_rounds_ = 0;
  Round horizon_ = 0;
  std::vector<uint32_t> backlog_;
  // Per-round emission scratch shared by implementations.
  std::vector<Run> runs_;
};

// Adapter: serves an existing Instance's job spans round by round, coalesced
// into per-color runs exactly as Engine's legacy arrival loop did. shape()
// is the full Instance, so clairvoyant policies still see the future; stats
// delegate to the Instance's precomputed values and SeekRound is O(1).
class InstanceSource : public ArrivalSource {
 public:
  InstanceSource() = default;
  explicit InstanceSource(const Instance& instance) { Bind(instance); }

  // Session rebind: serves `instance` (which must outlive the source) from
  // round 0. Keeps buffers.
  void Bind(const Instance& instance);

  bool bound() const { return instance_ != nullptr; }
  const Instance& instance() const { return *instance_; }

  Family family() const override { return Family::kInstance; }
  const Instance& shape() const override { return *instance_; }
  uint32_t max_backlog(ColorId c) const override {
    return instance_->max_backlog(c);
  }
  void SeekRound(Round r) override;
  std::unique_ptr<ArrivalSource> Clone() const override;

 protected:
  void ResetImpl() override {}
  std::span<const Run> EmitRound(Round k) override;

 private:
  const Instance* instance_ = nullptr;
};

// InstanceSource that owns its Instance — for handing adversary outputs to
// consumers (FleetJob source factories) without external ownership.
std::unique_ptr<ArrivalSource> MakeOwnedInstanceSource(Instance instance);

// Replays the source into a materialized Instance: shape()'s color table
// (delay bounds, names, drop costs) plus every emitted run, round-major.
// For the generator sources this reproduces the legacy Make* builders byte
// for byte (golden_trace_test pins the digests). Leaves `source` Reset().
Instance Materialize(ArrivalSource& source);

}  // namespace workload
}  // namespace rrs
