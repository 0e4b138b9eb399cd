#include "workload/source.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.h"

namespace rrs {
namespace workload {

namespace {

constexpr double kTwoPi = 6.283185307179586;

// The first batch window start of a delay-d color at or after `cursor`: the
// derived window state of a source restored at `cursor`.
Round WindowStartAt(Round cursor, Round d) { return (cursor + d - 1) / d * d; }

// The jobless shape of a ColorSpec table, and its rates in color order.
Instance ShapeOf(const std::vector<ColorSpec>& colors) {
  InstanceBuilder builder;
  for (const ColorSpec& spec : colors) builder.AddColor(spec.delay_bound);
  return builder.Build();
}

std::vector<PoissonMean> RatesOf(const std::vector<ColorSpec>& colors) {
  std::vector<PoissonMean> rates;
  rates.reserve(colors.size());
  for (const ColorSpec& spec : colors) rates.emplace_back(spec.rate);
  return rates;
}

}  // namespace

// ---- SeriesSource ---------------------------------------------------------

void SeriesSource::InitSeries(Instance shape, Round raw_rounds, bool batched,
                              bool rate_limited, Rng fork_base) {
  RRS_CHECK_GE(raw_rounds, 1);
  shape_ = std::move(shape);
  raw_rounds_ = raw_rounds;
  batched_ = batched || rate_limited;
  rate_limited_ = rate_limited;
  fork_base_ = fork_base;
  rngs_.resize(shape_.num_colors(), Rng(0));
  if (batched_) window_start_.resize(shape_.num_colors());
}

void SeriesSource::ResetImpl() {
  // Re-derive the per-color forks exactly as the materializing builders did:
  // one Fork from the master RNG per color, in color order.
  Rng rng = fork_base_;
  for (auto& fork : rngs_) fork = rng.Fork();
  std::fill(window_start_.begin(), window_start_.end(), 0);
  ResetSeries();
}

void SeriesSource::SaveBody(snapshot::Writer& w) const {
  for (const Rng& rng : rngs_) {
    for (const uint64_t word : rng.SaveState()) w.PutU64(word);
  }
  SaveSeries(w);
}

void SeriesSource::LoadBody(snapshot::Reader& r) {
  for (Rng& rng : rngs_) {
    std::array<uint64_t, 4> state;
    for (uint64_t& word : state) word = r.GetU64();
    rng.LoadState(state);
  }
  for (ColorId c = 0; c < window_start_.size(); ++c) {
    window_start_[c] = WindowStartAt(cursor_, shape_.delay_bound(c));
  }
  LoadSeries(r);
}

// ---- PoissonSource --------------------------------------------------------

PoissonSource::PoissonSource(const std::vector<ColorSpec>& colors,
                             const PoissonOptions& options)
    : rates_(RatesOf(colors)), options_(options) {
  InitSeries(ShapeOf(colors), options_.rounds, options_.batched,
             options_.rate_limited, Rng(options_.seed));
  FinishInit(options_.rounds);
}

std::span<const ArrivalSource::Run> PoissonSource::EmitRound(Round k) {
  return EmitSeries(k, [this](ColorId c, Round) {
    return rngs_[c].Poisson(rates_[c]);
  });
}

std::unique_ptr<ArrivalSource> PoissonSource::Clone() const {
  auto clone = std::make_unique<PoissonSource>(*this);
  clone->Reset();
  return clone;
}

// ---- BurstySource ---------------------------------------------------------

BurstySource::BurstySource(const std::vector<ColorSpec>& colors,
                           const BurstyOptions& options)
    : rates_(RatesOf(colors)), options_(options) {
  on_.resize(colors.size());
  InitSeries(ShapeOf(colors), options_.rounds, options_.batched,
             options_.rate_limited, Rng(options_.seed));
  FinishInit(options_.rounds);
}

std::span<const ArrivalSource::Run> BurstySource::EmitRound(Round k) {
  return EmitSeries(k, [this](ColorId c, Round) {
    Rng& rng = rngs_[c];
    const uint64_t count = on_[c] ? rng.Poisson(rates_[c]) : 0;
    const double flip = on_[c] ? options_.p_on_to_off : options_.p_off_to_on;
    if (rng.Bernoulli(flip)) on_[c] = !on_[c];
    return count;
  });
}

void BurstySource::ResetSeries() {
  std::fill(on_.begin(), on_.end(),
            static_cast<uint8_t>(options_.start_on ? 1 : 0));
}

void BurstySource::SaveSeries(snapshot::Writer& w) const { w.PutVec(on_); }

void BurstySource::LoadSeries(snapshot::Reader& r) {
  r.GetVec(on_);
  RRS_CHECK_EQ(on_.size(), rates_.size());
}

std::unique_ptr<ArrivalSource> BurstySource::Clone() const {
  auto clone = std::make_unique<BurstySource>(*this);
  clone->Reset();
  return clone;
}

// ---- ZipfSource -----------------------------------------------------------

ZipfSource::ZipfSource(const ZipfOptions& options)
    : options_(options),
      zipf_(options.num_colors, options.zipf_exponent),
      jobs_per_round_(options.jobs_per_round) {
  RRS_CHECK_GE(options_.rounds, 1);
  RRS_CHECK_GE(options_.num_colors, 1u);
  RRS_CHECK(!options_.delay_choices.empty());
  batched_ = options_.batched || options_.rate_limited;

  InstanceBuilder builder;
  Round max_delay = 1;
  for (size_t c = 0; c < options_.num_colors; ++c) {
    const Round d =
        options_.delay_choices[c % options_.delay_choices.size()];
    builder.AddColor(d);
    max_delay = std::max(max_delay, d);
  }
  shape_ = builder.Build();

  row_counts_.assign(options_.num_colors, 0);
  row_touched_.reserve(options_.num_colors);
  if (batched_) {
    window_acc_.resize(options_.num_colors);
    for (size_t c = 0; c < options_.num_colors; ++c) {
      // Rows are drawn at most max_delay rounds ahead of the emission
      // cursor, so at most max_delay / D_c + 1 of color c's windows are ever
      // accumulating at once; the +2'd power-of-two ring can never collide.
      const Round d = shape_.delay_bound(static_cast<ColorId>(c));
      const size_t cap = std::bit_ceil(
          static_cast<size_t>(max_delay / d) + 2);
      window_acc_[c].assign(cap, 0);
    }
    window_start_.resize(options_.num_colors);
  }
  FinishInit(options_.rounds);
}

void ZipfSource::ResetImpl() {
  rng_ = Rng(options_.seed);
  next_raw_ = 0;
  std::fill(row_counts_.begin(), row_counts_.end(), 0);
  row_touched_.clear();
  for (auto& ring : window_acc_) std::fill(ring.begin(), ring.end(), 0);
  std::fill(window_start_.begin(), window_start_.end(), 0);
}

void ZipfSource::DrawRowsThrough(Round needed) {
  // Raw per-round rows are drawn strictly in round order from the shared
  // RNG — the exact draw sequence of the materializing builder.
  for (Round r = next_raw_; r < needed; ++r) {
    const uint64_t total = rng_.Poisson(jobs_per_round_);
    for (uint64_t i = 0; i < total; ++i) {
      const size_t c = zipf_.Sample(rng_);
      const Round d = shape_.delay_bound(static_cast<ColorId>(c));
      auto& ring = window_acc_[c];
      ++ring[static_cast<size_t>(r / d) & (ring.size() - 1)];
    }
  }
  next_raw_ = std::max(next_raw_, needed);
}

std::span<const ArrivalSource::Run> ZipfSource::EmitRound(Round k) {
  runs_.clear();
  if (!batched_) {
    const uint64_t total = rng_.Poisson(jobs_per_round_);
    for (uint64_t i = 0; i < total; ++i) {
      const size_t c = zipf_.Sample(rng_);
      if (row_counts_[c]++ == 0) {
        row_touched_.push_back(static_cast<ColorId>(c));
      }
    }
    // The materializing builder emits per color in ascending order.
    std::sort(row_touched_.begin(), row_touched_.end());
    for (const ColorId c : row_touched_) {
      runs_.emplace_back(c, row_counts_[c]);
      row_counts_[c] = 0;
    }
    row_touched_.clear();
    return runs_;
  }

  Round needed = 0;
  for (ColorId c = 0; c < window_start_.size(); ++c) {
    if (window_start_[c] == k) {
      needed = std::max(needed,
                        std::min(options_.rounds, k + shape_.delay_bound(c)));
    }
  }
  if (needed > next_raw_) DrawRowsThrough(needed);
  for (ColorId c = 0; c < window_start_.size(); ++c) {
    if (window_start_[c] != k) continue;
    const Round d = shape_.delay_bound(c);
    window_start_[c] = k + d;
    auto& ring = window_acc_[c];
    const size_t slot = static_cast<size_t>(k / d) & (ring.size() - 1);
    uint64_t total = ring[slot];
    ring[slot] = 0;
    if (options_.rate_limited) {
      total = std::min<uint64_t>(total, static_cast<uint64_t>(d));
    }
    if (total != 0) runs_.emplace_back(c, total);
  }
  return runs_;
}

void ZipfSource::SaveBody(snapshot::Writer& w) const {
  for (const uint64_t word : rng_.SaveState()) w.PutU64(word);
  w.PutI64(next_raw_);
  for (const auto& ring : window_acc_) w.PutVec(ring);
}

void ZipfSource::LoadBody(snapshot::Reader& r) {
  std::array<uint64_t, 4> state;
  for (uint64_t& word : state) word = r.GetU64();
  rng_.LoadState(state);
  next_raw_ = r.GetI64();
  Round max_delay = 1;
  for (ColorId c = 0; c < window_start_.size(); ++c) {
    const Round d = shape_.delay_bound(c);
    max_delay = std::max(max_delay, d);
    window_start_[c] = WindowStartAt(cursor_, d);
  }
  // Raw rows are drawn only at window starts, through the longest window
  // that opened, so after round cursor_ - 1 they reach at least cursor_ and
  // at most cursor_ - 1 + max D (both capped at the round count).
  if (!batched_ || cursor_ == 0) {
    RRS_CHECK_EQ(next_raw_, 0)
        << "raw row cursor of a source that has drawn no rows ahead";
  } else {
    RRS_CHECK(next_raw_ >= std::min(options_.rounds, cursor_) &&
              next_raw_ <= std::min(options_.rounds, cursor_ - 1 + max_delay))
        << "raw row cursor " << next_raw_ << " outside the batch windows "
        << "open at round " << cursor_;
  }
  for (auto& ring : window_acc_) {
    const size_t cap = ring.size();
    r.GetVec(ring);
    RRS_CHECK_EQ(ring.size(), cap);
  }
}

std::unique_ptr<ArrivalSource> ZipfSource::Clone() const {
  auto clone = std::make_unique<ZipfSource>(*this);
  clone->Reset();
  return clone;
}

// ---- RouterSource ---------------------------------------------------------

RouterSource::RouterSource(std::vector<RouterService> services,
                           const RouterOptions& options)
    : services_(std::move(services)), options_(options) {
  RRS_CHECK_GE(options_.period, 2);
  RRS_CHECK(!services_.empty());
  InstanceBuilder builder;
  for (const RouterService& svc : services_) {
    RRS_CHECK_GE(svc.delay_bound, 1);
    RRS_CHECK_LE(svc.base_rate, svc.peak_rate);
    builder.AddColor(svc.delay_bound, svc.name);
  }
  InitSeries(builder.Build(), options_.rounds, options_.batched,
             options_.rate_limited, Rng(options_.seed));
  FinishInit(options_.rounds);
}

std::span<const ArrivalSource::Run> RouterSource::EmitRound(Round k) {
  return EmitSeries(k, [this](ColorId c, Round r) {
    const RouterService& svc = services_[c];
    // Phase-shift each service by an equal fraction of the period so the
    // dominant service rotates (expression identical to the materializing
    // builder's, for bit-equal rates).
    double phase = kTwoPi * static_cast<double>(c) /
                   static_cast<double>(services_.size());
    double wave =
        0.5 * (1.0 + std::sin(kTwoPi * static_cast<double>(r) /
                                  static_cast<double>(options_.period) +
                              phase));
    double rate = svc.base_rate + (svc.peak_rate - svc.base_rate) * wave;
    return rngs_[c].Poisson(rate);
  });
}

std::unique_ptr<ArrivalSource> RouterSource::Clone() const {
  auto clone = std::make_unique<RouterSource>(*this);
  clone->Reset();
  return clone;
}

// ---- DatacenterSource -----------------------------------------------------

DatacenterSource::DatacenterSource(const DatacenterOptions& options)
    : options_(options),
      dominant_rate_(options.dominant_rate),
      background_rate_(options.background_rate) {
  RRS_CHECK_GE(options_.phase_length, 1);
  RRS_CHECK_GE(options_.num_services, 1u);
  RRS_CHECK_GE(options_.dominant_per_phase, 1u);
  RRS_CHECK(!options_.delay_choices.empty());

  InstanceBuilder builder;
  for (size_t s = 0; s < options_.num_services; ++s) {
    builder.AddColor(
        options_.delay_choices[s % options_.delay_choices.size()],
        "svc" + std::to_string(s));
  }

  // Each phase's dominant services are drawn from the master RNG before any
  // per-service fork — the exact draw order of the materializing builder —
  // so the post-shuffle RNG is the fork base.
  Rng rng(options_.seed);
  const size_t num_phases = static_cast<size_t>(
      (options_.rounds + options_.phase_length - 1) / options_.phase_length);
  dominant_.assign(num_phases,
                   std::vector<uint8_t>(options_.num_services, 0));
  for (size_t ph = 0; ph < num_phases; ++ph) {
    std::vector<size_t> ids(options_.num_services);
    for (size_t s = 0; s < ids.size(); ++s) ids[s] = s;
    rng.Shuffle(ids);
    const size_t take = std::min(options_.dominant_per_phase, ids.size());
    for (size_t i = 0; i < take; ++i) dominant_[ph][ids[i]] = 1;
  }

  InitSeries(builder.Build(), options_.rounds, options_.batched,
             options_.rate_limited, rng);
  FinishInit(options_.rounds);
}

std::span<const ArrivalSource::Run> DatacenterSource::EmitRound(Round k) {
  return EmitSeries(k, [this](ColorId c, Round r) {
    const size_t ph = static_cast<size_t>(r / options_.phase_length);
    return rngs_[c].Poisson(dominant_[ph][c] ? dominant_rate_
                                             : background_rate_);
  });
}

std::unique_ptr<ArrivalSource> DatacenterSource::Clone() const {
  auto clone = std::make_unique<DatacenterSource>(*this);
  clone->Reset();
  return clone;
}

// ---- Factories ------------------------------------------------------------

std::unique_ptr<ArrivalSource> MakePoissonSource(
    std::vector<ColorSpec> colors, const PoissonOptions& options) {
  return std::make_unique<PoissonSource>(std::move(colors), options);
}

std::unique_ptr<ArrivalSource> MakeBurstySource(std::vector<ColorSpec> colors,
                                                const BurstyOptions& options) {
  return std::make_unique<BurstySource>(std::move(colors), options);
}

std::unique_ptr<ArrivalSource> MakeZipfSource(const ZipfOptions& options) {
  return std::make_unique<ZipfSource>(options);
}

std::unique_ptr<ArrivalSource> MakeRouterSource(
    std::vector<RouterService> services, const RouterOptions& options) {
  return std::make_unique<RouterSource>(std::move(services), options);
}

std::unique_ptr<ArrivalSource> MakeDatacenterSource(
    const DatacenterOptions& options) {
  return std::make_unique<DatacenterSource>(options);
}

}  // namespace workload
}  // namespace rrs
