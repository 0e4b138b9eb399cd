#include "workload/generator_spec.h"

#include "util/check.h"
#include "workload/source.h"

namespace rrs {
namespace workload {

namespace {

// `extra` layouts per family (doubles; integral knobs are exact below 2^53):
//   kBursty:     p_on_to_off, p_off_to_on, start_on
//   kZipf:       num_colors, jobs_per_round, zipf_exponent
//   kRouter:     period   (rates = base0, peak0, base1, peak1, ...)
//   kDatacenter: num_services, phase_length, dominant_per_phase,
//                background_rate, dominant_rate
//   kMemctrl:    num_ranks, banks_per_rank, burst_rate, idle_rate,
//                open_prob, close_prob, refresh_period, refresh_length
//   kPoisson:    (none; delays/rates are per-color)

std::vector<ColorSpec> UnpackColors(const GeneratorSpec& spec) {
  RRS_CHECK_EQ(spec.delays.size(), spec.rates.size());
  std::vector<ColorSpec> colors(spec.delays.size());
  for (size_t i = 0; i < colors.size(); ++i) {
    colors[i] = {spec.delays[i], spec.rates[i]};
  }
  return colors;
}

}  // namespace

GeneratorSpec PoissonSpec(const std::vector<ColorSpec>& colors,
                          const PoissonOptions& options) {
  GeneratorSpec spec;
  spec.family = ArrivalSource::Family::kPoisson;
  spec.seed = options.seed;
  spec.rounds = options.rounds;
  spec.batched = options.batched;
  spec.rate_limited = options.rate_limited;
  for (const ColorSpec& c : colors) {
    spec.delays.push_back(c.delay_bound);
    spec.rates.push_back(c.rate);
  }
  return spec;
}

GeneratorSpec BurstySpec(const std::vector<ColorSpec>& colors,
                         const BurstyOptions& options) {
  GeneratorSpec spec;
  spec.family = ArrivalSource::Family::kBursty;
  spec.seed = options.seed;
  spec.rounds = options.rounds;
  spec.batched = options.batched;
  spec.rate_limited = options.rate_limited;
  for (const ColorSpec& c : colors) {
    spec.delays.push_back(c.delay_bound);
    spec.rates.push_back(c.rate);
  }
  spec.extra = {options.p_on_to_off, options.p_off_to_on,
                options.start_on ? 1.0 : 0.0};
  return spec;
}

GeneratorSpec ZipfSpec(const ZipfOptions& options) {
  GeneratorSpec spec;
  spec.family = ArrivalSource::Family::kZipf;
  spec.seed = options.seed;
  spec.rounds = options.rounds;
  spec.batched = options.batched;
  spec.rate_limited = options.rate_limited;
  spec.delays = options.delay_choices;
  spec.extra = {static_cast<double>(options.num_colors),
                options.jobs_per_round, options.zipf_exponent};
  return spec;
}

GeneratorSpec RouterSpec(const std::vector<RouterService>& services,
                         const RouterOptions& options) {
  GeneratorSpec spec;
  spec.family = ArrivalSource::Family::kRouter;
  spec.seed = options.seed;
  spec.rounds = options.rounds;
  spec.batched = options.batched;
  spec.rate_limited = options.rate_limited;
  for (const RouterService& s : services) {
    spec.delays.push_back(s.delay_bound);
    spec.rates.push_back(s.base_rate);
    spec.rates.push_back(s.peak_rate);
    spec.names.push_back(s.name);
  }
  spec.extra = {static_cast<double>(options.period)};
  return spec;
}

GeneratorSpec DatacenterSpec(const DatacenterOptions& options) {
  GeneratorSpec spec;
  spec.family = ArrivalSource::Family::kDatacenter;
  spec.seed = options.seed;
  spec.rounds = options.rounds;
  spec.batched = options.batched;
  spec.rate_limited = options.rate_limited;
  spec.delays = options.delay_choices;
  spec.extra = {static_cast<double>(options.num_services),
                static_cast<double>(options.phase_length),
                static_cast<double>(options.dominant_per_phase),
                options.background_rate, options.dominant_rate};
  return spec;
}

GeneratorSpec MemctrlSpec(const MemctrlOptions& options) {
  GeneratorSpec spec;
  spec.family = ArrivalSource::Family::kMemctrl;
  spec.seed = options.seed;
  spec.rounds = options.rounds;
  spec.batched = options.batched;
  spec.rate_limited = options.rate_limited;
  spec.delays = options.delay_choices;
  spec.extra = {static_cast<double>(options.num_ranks),
                static_cast<double>(options.banks_per_rank),
                options.burst_rate,
                options.idle_rate,
                options.open_prob,
                options.close_prob,
                static_cast<double>(options.refresh_period),
                static_cast<double>(options.refresh_length)};
  return spec;
}

std::unique_ptr<ArrivalSource> MakeSource(const GeneratorSpec& spec) {
  switch (spec.family) {
    case ArrivalSource::Family::kPoisson: {
      PoissonOptions options;
      options.rounds = spec.rounds;
      options.batched = spec.batched;
      options.rate_limited = spec.rate_limited;
      options.seed = spec.seed;
      return MakePoissonSource(UnpackColors(spec), options);
    }
    case ArrivalSource::Family::kBursty: {
      RRS_CHECK_EQ(spec.extra.size(), 3u);
      BurstyOptions options;
      options.rounds = spec.rounds;
      options.p_on_to_off = spec.extra[0];
      options.p_off_to_on = spec.extra[1];
      options.start_on = spec.extra[2] != 0.0;
      options.batched = spec.batched;
      options.rate_limited = spec.rate_limited;
      options.seed = spec.seed;
      return MakeBurstySource(UnpackColors(spec), options);
    }
    case ArrivalSource::Family::kZipf: {
      RRS_CHECK_EQ(spec.extra.size(), 3u);
      ZipfOptions options;
      options.num_colors = static_cast<size_t>(spec.extra[0]);
      options.delay_choices = spec.delays;
      options.jobs_per_round = spec.extra[1];
      options.zipf_exponent = spec.extra[2];
      options.rounds = spec.rounds;
      options.batched = spec.batched;
      options.rate_limited = spec.rate_limited;
      options.seed = spec.seed;
      return MakeZipfSource(options);
    }
    case ArrivalSource::Family::kRouter: {
      RRS_CHECK_EQ(spec.extra.size(), 1u);
      RRS_CHECK_EQ(spec.rates.size(), 2 * spec.delays.size());
      RRS_CHECK_EQ(spec.names.size(), spec.delays.size());
      std::vector<RouterService> services(spec.delays.size());
      for (size_t i = 0; i < services.size(); ++i) {
        services[i] = {spec.names[i], spec.delays[i], spec.rates[2 * i],
                       spec.rates[2 * i + 1]};
      }
      RouterOptions options;
      options.rounds = spec.rounds;
      options.period = static_cast<Round>(spec.extra[0]);
      options.batched = spec.batched;
      options.rate_limited = spec.rate_limited;
      options.seed = spec.seed;
      return MakeRouterSource(std::move(services), options);
    }
    case ArrivalSource::Family::kDatacenter: {
      RRS_CHECK_EQ(spec.extra.size(), 5u);
      DatacenterOptions options;
      options.num_services = static_cast<size_t>(spec.extra[0]);
      options.delay_choices = spec.delays;
      options.rounds = spec.rounds;
      options.phase_length = static_cast<Round>(spec.extra[1]);
      options.dominant_per_phase = static_cast<size_t>(spec.extra[2]);
      options.background_rate = spec.extra[3];
      options.dominant_rate = spec.extra[4];
      options.batched = spec.batched;
      options.rate_limited = spec.rate_limited;
      options.seed = spec.seed;
      return MakeDatacenterSource(options);
    }
    case ArrivalSource::Family::kMemctrl: {
      RRS_CHECK_EQ(spec.extra.size(), 8u);
      MemctrlOptions options;
      options.num_ranks = static_cast<uint32_t>(spec.extra[0]);
      options.banks_per_rank = static_cast<uint32_t>(spec.extra[1]);
      options.delay_choices = spec.delays;
      options.rounds = spec.rounds;
      options.burst_rate = spec.extra[2];
      options.idle_rate = spec.extra[3];
      options.open_prob = spec.extra[4];
      options.close_prob = spec.extra[5];
      options.refresh_period = static_cast<Round>(spec.extra[6]);
      options.refresh_length = static_cast<Round>(spec.extra[7]);
      options.batched = spec.batched;
      options.rate_limited = spec.rate_limited;
      options.seed = spec.seed;
      return MakeMemctrlSource(options);
    }
    default:
      RRS_CHECK(false) << "family " << static_cast<uint64_t>(spec.family)
                       << " cannot ship as a GeneratorSpec";
      return nullptr;
  }
}

}  // namespace workload
}  // namespace rrs
