// Tenant inputs of the four workloads, built only through the workload/
// GeneratorSpec factories, and the oracles their results are checked
// against.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "bench.h"
#include "reduce/pipeline.h"
#include "sched/dlru_edf.h"
#include "workload/memctrl.h"
#include "workload/synthetic.h"

namespace stackbench {

namespace {

using rrs::Round;
using rrs::workload::ArrivalSource;
using rrs::workload::ColorSpec;
using rrs::workload::GeneratorSpec;

constexpr const char* kNames[] = {"fleet-lanes", "fleet-churn", "dist-ckpt",
                                  "ratio-audit"};

std::vector<ColorSpec> CycledColors(size_t count,
                                    const std::vector<Round>& delays,
                                    double rate) {
  std::vector<ColorSpec> colors;
  colors.reserve(count);
  for (size_t c = 0; c < count; ++c) {
    colors.push_back({delays[c % delays.size()], rate});
  }
  return colors;
}

Tenant FromSpec(GeneratorSpec spec, uint32_t resources, uint64_t delta) {
  Tenant tenant;
  tenant.spec = std::move(spec);
  tenant.proto = rrs::workload::MakeSource(tenant.spec);
  tenant.options.num_resources = resources;
  tenant.options.cost_model.delta = delta;
  return tenant;
}

// fleet-lanes and dist-ckpt: the production fleet shape. 16 colors with
// delay bounds 1..32, rate-limited Poisson arrivals, 8 resources, Δ = 4.
Tenant SameShapeTenant(uint64_t seed, Round rounds) {
  rrs::workload::PoissonOptions gen;
  gen.rounds = rounds;
  gen.rate_limited = true;
  gen.seed = seed;
  return FromSpec(rrs::workload::PoissonSpec(
                      CycledColors(16, {1, 2, 4, 8, 16, 32}, 0.5), gen),
                  8, 4);
}

// fleet-churn shape j. The parameters are stratified over their ranges
// (additive recurrences with irrational steps) instead of drawn from the
// seed, so every wave holds the same shape mix and only the arrivals vary
// with the seed: the op cost then does not depend on which shapes a seed
// happened to draw.
struct ChurnShape {
  int family = 0;  // 0 Poisson, 1 bursty, 2 Zipf, 3 memctrl
  size_t colors = 4;
  Round rounds = 16;
  uint32_t resources = 4;
  uint64_t delta = 1;
  bool pipeline = false;
};

ChurnShape ChurnShapeOf(size_t j) {
  auto stratum = [j](double step) {
    const double x = 0.5 + static_cast<double>(j) * step;
    return x - std::floor(x);
  };
  ChurnShape shape;
  shape.family = static_cast<int>(j % 4);
  shape.colors = 4 + static_cast<size_t>(stratum(0.6180339887498949) * 45);
  shape.rounds = 16 + static_cast<Round>(stratum(0.7548776662466927) * 97);
  shape.resources =
      4 * (1 + static_cast<uint32_t>(stratum(0.5698402909980532) * 4));
  shape.delta = 1 + static_cast<uint64_t>(stratum(0.4142135623730950) * 8);
  shape.pipeline = j % 5 == 2;  // one tenant in five
  return shape;
}

Tenant ChurnTenant(const ChurnShape& shape, uint64_t seed) {
  // Offered load: about 0.6 jobs per resource per round across the colors.
  const double load = 0.6 * shape.resources;
  const double per_color = load / static_cast<double>(shape.colors);
  GeneratorSpec spec;
  switch (shape.family) {
    case 0: {
      rrs::workload::PoissonOptions gen;
      gen.rounds = shape.rounds;
      gen.seed = seed;
      spec = rrs::workload::PoissonSpec(
          CycledColors(shape.colors, {1, 2, 4, 8, 16}, per_color), gen);
      break;
    }
    case 1: {
      rrs::workload::BurstyOptions gen;
      gen.rounds = shape.rounds;
      gen.p_on_to_off = 0.1;
      gen.p_off_to_on = 0.1;
      gen.seed = seed;
      spec = rrs::workload::BurstySpec(
          CycledColors(shape.colors, {2, 4, 8, 16}, 2 * per_color), gen);
      break;
    }
    case 2: {
      rrs::workload::ZipfOptions gen;
      gen.num_colors = shape.colors;
      gen.delay_choices = {1, 2, 4, 8, 16};
      gen.jobs_per_round = load;
      gen.rounds = shape.rounds;
      gen.seed = seed;
      spec = rrs::workload::ZipfSpec(gen);
      break;
    }
    default: {
      rrs::workload::MemctrlOptions gen;
      gen.num_ranks = shape.colors >= 16 ? 4 : 2;
      gen.banks_per_rank = static_cast<uint32_t>(
          std::max<size_t>(1, shape.colors / gen.num_ranks));
      gen.delay_choices = {4, 8, 16};
      gen.rounds = shape.rounds;
      gen.burst_rate = 2.5 * per_color;
      gen.idle_rate = 0.2 * per_color;
      gen.refresh_period = 64;
      gen.refresh_length = 4;
      gen.seed = seed;
      spec = rrs::workload::MemctrlSpec(gen);
      break;
    }
  }
  Tenant tenant = FromSpec(std::move(spec), shape.resources, shape.delta);
  if (shape.pipeline) {
    tenant.pipeline = true;
    tenant.instance = rrs::workload::Materialize(*tenant.proto);
  }
  return tenant;
}

// ratio-audit: the E3 competitive-ratio shape — 3 colors with delay bounds
// 1, 2, 4 at 0.4 jobs per round each over 32 request rounds, Δ = 2. Online
// policies replay on 8 resources; OPT is certified at kAuditOptResources.
Tenant AuditTenant(uint64_t seed) {
  rrs::workload::PoissonOptions gen;
  gen.rounds = 32;
  gen.seed = seed;
  Tenant tenant = FromSpec(
      rrs::workload::PoissonSpec(CycledColors(3, {1, 2, 4}, 0.4), gen), 8, 2);
  tenant.instance = rrs::workload::Materialize(*tenant.proto);
  return tenant;
}

// Deterministic Fisher-Yates permutation of [0, n).
std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    const size_t k = DeriveSeed(seed, 0x5045524d, i) % i;
    std::swap(order[i - 1], order[k]);
  }
  return order;
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (size_t i = 0; i < std::size(kNames); ++i) {
    if (name == kNames[i]) {
      *kind = static_cast<WorkloadKind>(i);
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  return kNames[static_cast<size_t>(kind)];
}

Sizing DefaultSizing(WorkloadKind kind, bool quick) {
  Sizing sizing;
  // Waves sized for ops of about 0.1 s on a 4-vCPU VM, so a 30 s run makes a
  // few hundred ops. dist-ckpt is timed on the wall clock, where an op this
  // long spans several of a shared host's steal bursts, so its op_ms_p90
  // moves less with steal than a short op's would.
  switch (kind) {
    case WorkloadKind::kFleetLanes:
    case WorkloadKind::kFleetChurn:
      sizing.waves = 2;
      sizing.wave_tenants = 1024;
      break;
    case WorkloadKind::kDistCkpt:
      sizing.waves = 2;
      sizing.wave_tenants = 256;
      break;
    case WorkloadKind::kRatioAudit:
      sizing.waves = 4096;  // corpus instances; one per op
      sizing.wave_tenants = 1;
      break;
  }
  if (quick) {
    // Waves keep their size, so slabs fill as in a real run.
    sizing.waves = kind == WorkloadKind::kRatioAudit ? 16 : 2;
    sizing.setup_reps = 2;
    sizing.min_ops = 4;
  }
  return sizing;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  // SplitMix64 finalizer over a mix of the three inputs.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL +
               index * 0x8cb92ba72f3d8dd7ULL + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<Tenant> BuildWave(WorkloadKind kind, uint64_t seed, size_t wave,
                              size_t count) {
  std::vector<Tenant> tenants;
  tenants.reserve(count);
  switch (kind) {
    case WorkloadKind::kFleetLanes:
      for (size_t i = 0; i < count; ++i) {
        tenants.push_back(SameShapeTenant(DeriveSeed(seed, wave, i), 128));
      }
      break;
    case WorkloadKind::kDistCkpt:
      for (size_t i = 0; i < count; ++i) {
        tenants.push_back(SameShapeTenant(DeriveSeed(seed, wave, i), 128));
      }
      break;
    case WorkloadKind::kFleetChurn: {
      // Tenants 2p and 2p+1 share a shape, so both shards of the 2-thread
      // runner (tenant i goes to shard i mod 2) get the same shape mix; the
      // seed orders the shapes within each wave.
      const size_t shapes = (count + 1) / 2;
      const std::vector<size_t> order =
          Permutation(shapes, DeriveSeed(seed, wave, 0x53484150));
      for (size_t i = 0; i < count; ++i) {
        tenants.push_back(ChurnTenant(ChurnShapeOf(order[i / 2]),
                                      DeriveSeed(seed, wave, i)));
      }
      break;
    }
    case WorkloadKind::kRatioAudit:
      for (size_t i = 0; i < count; ++i) {
        tenants.push_back(AuditTenant(DeriveSeed(seed, wave, i)));
      }
      break;
  }
  return tenants;
}

ResultKey KeyOf(const rrs::RunResult& result) {
  ResultKey key;
  key.reconfigurations = result.cost.reconfigurations;
  key.drops = result.cost.drops;
  key.weighted_drops = result.cost.weighted_drops;
  key.executed = result.executed;
  key.arrived = result.arrived;
  key.rounds = static_cast<uint64_t>(result.rounds_simulated);
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (uint64_t d : result.drops_per_color) {
    digest = (digest ^ d) * 0x100000001b3ULL;
  }
  key.drops_digest = digest;
  return key;
}

ResultKey OracleKey(const Tenant& tenant) {
  if (!tenant.pipeline) {
    std::unique_ptr<ArrivalSource> source = tenant.proto->Clone();
    rrs::Engine engine;
    engine.Reset(*source, tenant.options);
    rrs::DlruEdfPolicy policy;
    return KeyOf(engine.Run(policy));
  }
  const rrs::reduce::PipelineResult pipe =
      rrs::reduce::SolveOnline(tenant.instance, tenant.options);
  rrs::RunResult certified;
  certified.cost = pipe.validation.cost;
  certified.arrived = tenant.instance.num_jobs();
  certified.executed = certified.arrived - certified.cost.drops;
  certified.rounds_simulated = pipe.inner.rounds_simulated;
  certified.drops_per_color = pipe.inner.drops_per_color;
  ResultKey key = KeyOf(certified);
  if (!pipe.validation.ok) key.rounds = ~uint64_t{0};
  return key;
}

}  // namespace stackbench
