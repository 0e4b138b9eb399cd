// Synthetic workload generators.
//
// All generators are deterministic given their seed and emit Instances; the
// `batched` family restricts color-ℓ arrivals to integral multiples of D_ℓ
// (the [Δ | 1 | D_ℓ | D_ℓ] precondition of Sections 3-4) and can additionally
// clamp per-batch counts to D_ℓ (the rate-limited precondition of Section 3).
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "util/rng.h"

namespace rrs {
namespace workload {

struct ColorSpec {
  Round delay_bound = 1;
  double rate = 0.0;  // mean jobs per round (Poisson) while the color is "on"
};

struct PoissonOptions {
  Round rounds = 0;        // request rounds [0, rounds)
  bool batched = false;    // emit only at multiples of D_ℓ (mass accumulates)
  bool rate_limited = false;  // clamp per-batch count to D_ℓ (implies batched)
  uint64_t seed = 1;
};

// Independent Poisson arrivals per color at the given per-round rates.
Instance MakePoisson(const std::vector<ColorSpec>& colors,
                     const PoissonOptions& options);

struct BurstyOptions {
  Round rounds = 0;
  // Two-state Markov modulation per color: in each round the color is ON or
  // OFF; ON emits Poisson(rate) jobs, OFF emits none.
  double p_on_to_off = 0.05;
  double p_off_to_on = 0.05;
  bool start_on = false;
  bool batched = false;
  bool rate_limited = false;
  uint64_t seed = 1;
};

// Markov-modulated on/off bursts per color (the paper's motivating traffic
// fluctuation pattern).
Instance MakeBursty(const std::vector<ColorSpec>& colors,
                    const BurstyOptions& options);

struct ZipfOptions {
  size_t num_colors = 8;
  // Delay bound of color c: delay_choices[c % delay_choices.size()].
  std::vector<Round> delay_choices = {1, 2, 4, 8};
  double jobs_per_round = 4.0;  // mean total arrivals per round
  double zipf_exponent = 1.0;   // color popularity skew
  Round rounds = 0;
  bool batched = false;
  bool rate_limited = false;
  uint64_t seed = 1;
};

// Zipf-skewed color popularity: each round draws Poisson(jobs_per_round)
// jobs and assigns each a color by Zipf rank.
Instance MakeZipf(const ZipfOptions& options);

}  // namespace workload
}  // namespace rrs
