#include "workload/memctrl.h"

#include <string>

#include "util/check.h"
#include "workload/source.h"

namespace rrs {
namespace workload {

namespace {

class MemctrlSource final : public SeriesSource {
 public:
  explicit MemctrlSource(const MemctrlOptions& options)
      : options_(options),
        burst_rate_(options.burst_rate),
        idle_rate_(options.idle_rate) {
    RRS_CHECK_GE(options_.num_ranks, 1u);
    RRS_CHECK_GE(options_.banks_per_rank, 1u);
    RRS_CHECK(!options_.delay_choices.empty());
    RRS_CHECK_GE(options_.refresh_length, 0);
    if (options_.refresh_length > 0) {
      RRS_CHECK_GT(options_.refresh_period, options_.refresh_length);
    }
    InstanceBuilder builder;
    size_t idx = 0;
    for (uint32_t r = 0; r < options_.num_ranks; ++r) {
      for (uint32_t b = 0; b < options_.banks_per_rank; ++b) {
        builder.AddColor(
            options_.delay_choices[idx++ % options_.delay_choices.size()],
            "r" + std::to_string(r) + "b" + std::to_string(b));
      }
    }
    InitSeries(builder.Build(), options_.rounds, options_.batched,
               options_.rate_limited, Rng(options_.seed));
    FinishInit(options_.rounds);
  }

  Family family() const override { return Family::kMemctrl; }

  std::unique_ptr<ArrivalSource> Clone() const override {
    auto clone = std::make_unique<MemctrlSource>(*this);
    clone->Reset();
    return clone;
  }

 protected:
  std::span<const Run> EmitRound(Round k) override {
    return EmitSeries(k, [this](ColorId c, Round r) {
      Rng& rng = rngs_[c];
      uint64_t count = rng.Poisson(on_[c] ? burst_rate_ : idle_rate_);
      const double flip = on_[c] ? options_.close_prob : options_.open_prob;
      if (rng.Bernoulli(flip)) on_[c] ^= 1;
      if (InRefresh(c / options_.banks_per_rank, r)) {
        stash_[c] += count;
        return uint64_t{0};
      }
      count += stash_[c];
      stash_[c] = 0;
      return count;
    });
  }

  void ResetSeries() override {
    on_.assign(rngs_.size(), 0);
    stash_.assign(rngs_.size(), 0);
  }

  void SaveSeries(snapshot::Writer& w) const override {
    w.PutVec(on_);
    w.PutVec(stash_);
  }
  void LoadSeries(snapshot::Reader& r) override {
    r.GetVec(on_);
    r.GetVec(stash_);
    RRS_CHECK_EQ(on_.size(), rngs_.size());
    RRS_CHECK_EQ(stash_.size(), rngs_.size());
    // The draw toggles the flag with ^= 1, so any other value never closes.
    for (const unsigned open : on_) {
      RRS_CHECK_LE(open, 1u) << "open-row flag other than 0 or 1";
    }
  }

 private:
  bool InRefresh(uint32_t rank, Round r) const {
    if (options_.refresh_length == 0) return false;
    // Stagger ranks evenly across the period so refresh storms don't align.
    const Round stagger =
        (options_.refresh_period / options_.num_ranks) * rank;
    return (r + stagger) % options_.refresh_period < options_.refresh_length;
  }

  MemctrlOptions options_;
  PoissonMean burst_rate_;
  PoissonMean idle_rate_;
  std::vector<uint8_t> on_;      // per-bank open-row flag
  std::vector<uint64_t> stash_;  // per-bank arrivals held during refresh
};

}  // namespace

std::unique_ptr<ArrivalSource> MakeMemctrlSource(
    const MemctrlOptions& options) {
  return std::make_unique<MemctrlSource>(options);
}

}  // namespace workload
}  // namespace rrs
