// Streaming forms of the synthetic and scenario generators.
//
// Every family here emits the exact per-round counts its materializing
// counterpart (workload/synthetic.h, workload/scenarios.h) builds into an
// Instance: the RNG fork structure and draw order are preserved — one master
// Rng seeded from options.seed, one Fork per color in color order, one draw
// (or draw pair) per color per round in round order — so
// Materialize(*MakePoissonSource(...)) is byte-identical to MakePoisson(...)
// and the legacy builders are now thin wrappers over these sources
// (golden_trace_test pins the digests). The `batched` variants aggregate
// each D-aligned window into a batch at the window start; since a window's
// draws all come from that color's own fork, a streaming source draws them
// at the window-start round without disturbing any other color's stream.
//
// State (SaveState/LoadState) is the cursor plus the per-color RNG states
// and any modulation state (burst flags, Zipf window accumulators), so a
// restored source continues bit-identically — the dist fleet's live
// migration path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/rng.h"
#include "workload/arrival_source.h"
#include "workload/scenarios.h"
#include "workload/synthetic.h"

namespace rrs {
namespace workload {

// Shared machinery for families driven by one independent RNG fork per
// color: a jobless shape, the fork chain, and the D-aligned batching loop.
// Each family's EmitRound calls EmitSeries with its own inline per-round
// draw, and overrides the hooks for any extra modulation state.
class SeriesSource : public ArrivalSource {
 public:
  const Instance& shape() const override { return shape_; }

 protected:
  // `fork_base` is the master RNG state from which per-color forks are
  // taken at every Reset (for most families Rng(seed); Datacenter advances
  // it past the phase shuffles first).
  void InitSeries(Instance shape, Round raw_rounds, bool batched,
                  bool rate_limited, Rng fork_base);

  void ResetImpl() override;
  void SaveBody(snapshot::Writer& w) const override;
  void LoadBody(snapshot::Reader& r) override;

  // Emits round k's runs. draw(c, r) is color c's count for round r; it must
  // draw from rngs_[c] only, so each color's stream is fork-local. Batched
  // colors emit at multiples of D_c, aggregating the window [k, k + D_c)
  // drawn here in round order, so the fork's stream matches the unbatched
  // draw sequence exactly.
  template <class Draw>
  std::span<const Run> EmitSeries(Round k, Draw draw);

  // Reset/save/load modulation state beyond the RNG forks.
  virtual void ResetSeries() {}
  virtual void SaveSeries(snapshot::Writer&) const {}
  virtual void LoadSeries(snapshot::Reader&) {}

  Instance shape_;
  Round raw_rounds_ = 0;
  bool batched_ = false;
  bool rate_limited_ = false;
  Rng fork_base_{0};
  std::vector<Rng> rngs_;
  // Batched only: each color's next window start, the first multiple of D_c
  // at or after the cursor. Derived state: Reset zeroes it and LoadBody
  // recomputes it from the loaded cursor, so it is never saved.
  std::vector<Round> window_start_;
};

template <class Draw>
std::span<const ArrivalSource::Run> SeriesSource::EmitSeries(Round k,
                                                             Draw draw) {
  runs_.clear();
  const size_t num_colors = rngs_.size();
  if (!batched_) {
    for (ColorId c = 0; c < num_colors; ++c) {
      const uint64_t count = draw(c, k);
      if (count != 0) runs_.emplace_back(c, count);
    }
    return runs_;
  }
  for (ColorId c = 0; c < num_colors; ++c) {
    if (window_start_[c] != k) continue;
    const Round d = shape_.delay_bound(c);
    window_start_[c] = k + d;
    uint64_t total = 0;
    const Round end = std::min(raw_rounds_, k + d);
    for (Round r = k; r < end; ++r) total += draw(c, r);
    if (rate_limited_) {
      total = std::min<uint64_t>(total, static_cast<uint64_t>(d));
    }
    if (total != 0) runs_.emplace_back(c, total);
  }
  return runs_;
}

// ---- synthetic.h counterparts --------------------------------------------

// Per-color rates live in the shape's color order as PoissonMeans: the rate
// with its Knuth limit computed once (the delay bounds live in shape_).

class PoissonSource final : public SeriesSource {
 public:
  PoissonSource(const std::vector<ColorSpec>& colors,
                const PoissonOptions& options);

  Family family() const override { return Family::kPoisson; }
  std::unique_ptr<ArrivalSource> Clone() const override;

 protected:
  std::span<const Run> EmitRound(Round k) override;

 private:
  std::vector<PoissonMean> rates_;
  PoissonOptions options_;
};

class BurstySource final : public SeriesSource {
 public:
  BurstySource(const std::vector<ColorSpec>& colors,
               const BurstyOptions& options);

  Family family() const override { return Family::kBursty; }
  std::unique_ptr<ArrivalSource> Clone() const override;

 protected:
  std::span<const Run> EmitRound(Round k) override;
  void ResetSeries() override;
  void SaveSeries(snapshot::Writer& w) const override;
  void LoadSeries(snapshot::Reader& r) override;

 private:
  std::vector<PoissonMean> rates_;
  BurstyOptions options_;
  std::vector<uint8_t> on_;  // per-color Markov state
};

// Zipf draws from one shared RNG (total per round, then a color per job), so
// it is not a SeriesSource. The batched variant must aggregate each color's
// D_c-aligned windows while drawing raw rows strictly in round order; rows
// are drawn lazily at window-start rounds and folded into per-color window
// accumulator rings (bounded by max D / D_c windows in flight). Like
// SeriesSource, it tracks each color's next window start as derived state.
class ZipfSource final : public ArrivalSource {
 public:
  explicit ZipfSource(const ZipfOptions& options);

  Family family() const override { return Family::kZipf; }
  const Instance& shape() const override { return shape_; }
  std::unique_ptr<ArrivalSource> Clone() const override;

 protected:
  void ResetImpl() override;
  std::span<const Run> EmitRound(Round k) override;
  void SaveBody(snapshot::Writer& w) const override;
  void LoadBody(snapshot::Reader& r) override;

 private:
  void DrawRowsThrough(Round needed);

  ZipfOptions options_;
  Instance shape_;
  bool batched_ = false;
  ZipfDistribution zipf_;
  PoissonMean jobs_per_round_;
  Rng rng_{0};
  // Non-batched scratch: dense per-color counts for the current row.
  std::vector<uint64_t> row_counts_;
  std::vector<ColorId> row_touched_;
  // Batched state: raw rows drawn so far, per-color window accumulator
  // rings (slot = window index mod ring size) and the derived next window
  // starts.
  Round next_raw_ = 0;
  std::vector<std::vector<uint64_t>> window_acc_;
  std::vector<Round> window_start_;
};

// ---- scenarios.h counterparts --------------------------------------------

class RouterSource final : public SeriesSource {
 public:
  RouterSource(std::vector<RouterService> services,
               const RouterOptions& options);

  Family family() const override { return Family::kRouter; }
  std::unique_ptr<ArrivalSource> Clone() const override;

 protected:
  // The rate follows a sine over rounds, so each draw computes its own
  // Poisson limit.
  std::span<const Run> EmitRound(Round k) override;

 private:
  std::vector<RouterService> services_;
  RouterOptions options_;
};

class DatacenterSource final : public SeriesSource {
 public:
  explicit DatacenterSource(const DatacenterOptions& options);

  Family family() const override { return Family::kDatacenter; }
  std::unique_ptr<ArrivalSource> Clone() const override;

 protected:
  std::span<const Run> EmitRound(Round k) override;

 private:
  DatacenterOptions options_;
  PoissonMean dominant_rate_;
  PoissonMean background_rate_;
  // Per-phase dominant-service masks, drawn from the master RNG before the
  // per-service forks (configuration, not state: identical at every Reset).
  std::vector<std::vector<uint8_t>> dominant_;
};

// ---- Factories ------------------------------------------------------------

std::unique_ptr<ArrivalSource> MakePoissonSource(std::vector<ColorSpec> colors,
                                                 const PoissonOptions& options);
std::unique_ptr<ArrivalSource> MakeBurstySource(std::vector<ColorSpec> colors,
                                                const BurstyOptions& options);
std::unique_ptr<ArrivalSource> MakeZipfSource(const ZipfOptions& options);
std::unique_ptr<ArrivalSource> MakeRouterSource(
    std::vector<RouterService> services, const RouterOptions& options);
std::unique_ptr<ArrivalSource> MakeDatacenterSource(
    const DatacenterOptions& options);

}  // namespace workload
}  // namespace rrs
