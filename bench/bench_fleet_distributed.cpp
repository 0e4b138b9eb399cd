// Distributed fleet perf gate (no google-benchmark dependency).
//
// Measures DistController multi-process throughput and writes a JSON report
// (default BENCH_fleet_distributed.json, or the first non-flag arg) with,
// per cell:
//
//   rounds_per_sec     aggregate simulated rounds per second across all
//                      workers (DistStats.rounds_stepped / Run wall time)
//   sessions_per_sec   tenants fully served per second
//   workers            worker process count
//   usable_cpus        CPUs the run can use: the affinity mask capped by
//                      the cgroup cpu.max quota (bench_util.h UsableCpus)
//
// The headline claim is linear scaling: the 2-worker cell names the
// 1-worker cell via "scaling_ref" and stamps "scaling_gate": 1.7 — its
// aggregate rounds/s must reach >= 1.7x the 1-worker cell's. The ratio is
// recorded as "measured_scaling": the median over *interleaved* runs
// (1w, 2w, 1w, 2w, ...), so machine drift lands on both sides and divides
// out. tools/bench_compare.py enforces the gate only when the current
// report's usable_cpus can actually host the workers (>= workers); on a
// 1-CPU box the processes timeshare one core, scaling is structurally ~1x,
// and the tool skips the gate loudly instead of failing on physics.
// The 4-worker cell is informational (no gate) for the same reason.
//
// The migration cell runs a 2-worker fleet with one live migration
// scheduled at every tick barrier and records migrations_per_sec plus the
// rounds/s the fleet sustains *while* moving tenants — the cost of the
// quiesce → snapshot → ship → restore cycle under load.
//
// The 1M-tenant demonstration (EXPERIMENTS.md E18) is the same binary:
//   bench_fleet_distributed --tenants 1000000 --workers 4
//                           --max-live 4096 --rounds 8 out.json
// runs a single "dist/custom" cell with a bounded live window per worker
// and result collection thinned to completion signals.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "fleet/dist/controller.h"
#include "fleet/fleet_runner.h"
#include "workload/synthetic.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// RRS_BENCH_SMOKE=1: one interleaved run per cell instead of three — the
// tier-1 smoke run that proves every cell still executes and emits its
// metrics; numbers are only ever checked for shape (bench_compare.py
// --shape-only), never gated.
bool SmokeMode() {
  static const bool smoke = std::getenv("RRS_BENCH_SMOKE") != nullptr;
  return smoke;
}

// Tenants cycle over a small pool of distinct instances so a 1M-tenant
// fleet does not pay 1M generator runs (same scheme as bench_fleet.cpp).
constexpr size_t kDistinct = 32;

std::vector<rrs::Instance> MakeTenantPool(rrs::Round rounds) {
  std::vector<rrs::workload::ColorSpec> specs;
  const rrs::Round delays[] = {1, 2, 4, 8, 16, 32};
  for (size_t c = 0; c < 16; ++c) {
    specs.push_back({delays[c % 6], 0.5});
  }
  std::vector<rrs::Instance> pool;
  pool.reserve(kDistinct);
  for (size_t i = 0; i < kDistinct; ++i) {
    rrs::workload::PoissonOptions gen;
    gen.rounds = rounds;
    gen.rate_limited = true;
    gen.seed = 2000 + i;
    pool.push_back(MakePoisson(specs, gen));
  }
  return pool;
}

struct DistCell {
  std::string name;
  size_t workers = 1;
  size_t tenants = 4096;
  rrs::Round rounds = 32;          // per-tenant horizon
  uint32_t rounds_per_tick = 32;
  uint64_t max_live = 0;           // per-worker live window, 0 = unbounded
  bool collect_results = true;
  bool migrate_every_tick = false;
  const char* scaling_ref = nullptr;
  double scaling_gate = 0;         // 0 = informational
};

struct DistCellResult {
  std::string name;
  size_t workers = 0;
  double rounds_per_sec = 0;
  double sessions_per_sec = 0;
  double measured_scaling = -1;
  double scaling_gate = 0;
  std::string scaling_ref;
  double migrations_per_sec = -1;
  double wall_s = 0;
};

// One full fleet lifecycle: fork workers, place tenants, tick to
// completion, reap. Returns aggregate rounds/s; Start/AddJobs/Shutdown are
// excluded from the timed region (Run is the steady state being gated).
double RunOnce(const DistCell& cell, const std::vector<rrs::Instance>& pool,
               DistCellResult& out) {
  rrs::fleet::dist::DistOptions options;
  options.num_workers = cell.workers;
  options.worker.rounds_per_tick = cell.rounds_per_tick;
  options.worker.max_live_sessions = cell.max_live;
  options.worker.collect_results = cell.collect_results;
  options.worker.report_slo = false;
  options.track_slo = false;
  rrs::fleet::dist::DistController controller(std::move(options));
  std::string error;
  if (!controller.Start(&error)) {
    std::fprintf(stderr, "%s: Start failed: %s\n", cell.name.c_str(),
                 error.c_str());
    std::exit(1);
  }
  std::vector<rrs::fleet::FleetJob> jobs;
  jobs.reserve(cell.tenants);
  for (size_t i = 0; i < cell.tenants; ++i) {
    rrs::fleet::FleetJob job;
    job.instance = &pool[i % pool.size()];
    job.options.num_resources = 8;
    job.options.cost_model.delta = 4;
    jobs.push_back(job);
  }
  controller.AddJobs(jobs);
  if (cell.migrate_every_tick) {
    // A migration at every barrier, round-robin over tenants and targets:
    // the fleet is permanently mid-rebalance.
    for (uint64_t tick = 1; tick <= 512; ++tick) {
      controller.ScheduleMigration(tick, (tick * 7) % cell.tenants,
                                   (tick + 1) % cell.workers);
    }
  }
  const auto start = Clock::now();
  controller.Run();
  const auto stop = Clock::now();
  const rrs::fleet::dist::DistStats& stats = controller.stats();
  const double elapsed = Seconds(start, stop);
  const double rps = static_cast<double>(stats.rounds_stepped) / elapsed;
  const double sps = static_cast<double>(stats.completed) / elapsed;
  if (rps > out.rounds_per_sec) {
    out.rounds_per_sec = rps;
    out.sessions_per_sec = sps;
    out.wall_s = elapsed;
    if (cell.migrate_every_tick) {
      out.migrations_per_sec =
          static_cast<double>(stats.migrations) / elapsed;
    }
  }
  controller.Shutdown();
  return rps;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_fleet_distributed.json";
  size_t custom_tenants = 0;
  size_t custom_workers = 2;
  uint64_t custom_max_live = 4096;
  rrs::Round custom_rounds = 8;
  bool custom_collect = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      custom_tenants = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      custom_workers = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-live") == 0 && i + 1 < argc) {
      custom_max_live = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      custom_rounds = static_cast<rrs::Round>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--collect-results") == 0) {
      custom_collect = true;
    } else if (std::strcmp(argv[i], "--no-collect-results") == 0) {
      custom_collect = false;
    } else {
      out_path = argv[i];
    }
  }
  const unsigned usable_cpus = rrs::bench::UsableCpus();

  std::vector<DistCellResult> results;
  if (custom_tenants > 0) {
    // Demonstration mode: one custom cell, sized from the command line.
    DistCell cell;
    cell.name = "dist/custom";
    cell.workers = custom_workers;
    cell.tenants = custom_tenants;
    cell.rounds = custom_rounds;
    cell.rounds_per_tick = 32;
    cell.max_live = custom_max_live;
    cell.collect_results = custom_collect;
    const std::vector<rrs::Instance> pool = MakeTenantPool(cell.rounds);
    DistCellResult out;
    out.name = cell.name;
    out.workers = cell.workers;
    RunOnce(cell, pool, out);
    results.push_back(std::move(out));
  } else {
    // Gate cells: identical tenants at 1/2/4 workers. Runs interleave
    // (1w, 2w, 4w, 1w, 2w, 4w, ...) so every scaling ratio pairs runs that
    // shared the machine's noise environment.
    const int kIters = SmokeMode() ? 1 : 3;
    DistCell one{"dist/1worker", 1};
    DistCell two{"dist/2workers", 2};
    two.scaling_ref = "dist/1worker";
    two.scaling_gate = 1.7;
    DistCell four{"dist/4workers", 4};
    four.scaling_ref = "dist/1worker";  // informational: no gate
    const DistCell* cells[] = {&one, &two, &four};
    const std::vector<rrs::Instance> pool = MakeTenantPool(one.rounds);
    results.resize(3);
    std::vector<std::vector<double>> rates(3);
    for (size_t i = 0; i < 3; ++i) {
      results[i].name = cells[i]->name;
      results[i].workers = cells[i]->workers;
      results[i].scaling_gate = cells[i]->scaling_gate;
      if (cells[i]->scaling_ref != nullptr) {
        results[i].scaling_ref = cells[i]->scaling_ref;
      }
    }
    for (int w = 0; w < kIters; ++w) {
      for (size_t i = 0; i < 3; ++i) {
        rates[i].push_back(RunOnce(*cells[i], pool, results[i]));
      }
    }
    for (size_t i = 1; i < 3; ++i) {
      std::vector<double> ratios;
      for (int w = 0; w < kIters; ++w) {
        if (rates[0][w] > 0) ratios.push_back(rates[i][w] / rates[0][w]);
      }
      if (!ratios.empty()) {
        std::sort(ratios.begin(), ratios.end());
        results[i].measured_scaling = ratios[ratios.size() / 2];
      }
    }

    // Migration-cost cell: the fleet rebalances at every barrier.
    DistCell migration{"dist/migration", 2, 512, 32, 8};
    migration.migrate_every_tick = true;
    DistCellResult out;
    out.name = migration.name;
    out.workers = migration.workers;
    for (int w = 0; w < kIters; ++w) RunOnce(migration, pool, out);
    results.push_back(std::move(out));
  }

  for (const DistCellResult& r : results) {
    std::printf("%-20s %zu workers %14.0f rounds/s %12.0f sessions/s",
                r.name.c_str(), r.workers, r.rounds_per_sec,
                r.sessions_per_sec);
    if (r.measured_scaling >= 0) {
      std::printf("  %.2fx of %s", r.measured_scaling, r.scaling_ref.c_str());
    }
    if (r.migrations_per_sec >= 0) {
      std::printf("  %.0f migrations/s", r.migrations_per_sec);
    }
    std::printf("  (%.2fs)\n", r.wall_s);
  }
  std::printf("usable cpus: %u\n", usable_cpus);

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const DistCellResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"workers\": %zu, "
                 "\"usable_cpus\": %u, \"rounds_per_sec\": %.1f, "
                 "\"sessions_per_sec\": %.1f",
                 r.name.c_str(), r.workers, usable_cpus, r.rounds_per_sec,
                 r.sessions_per_sec);
    if (!r.scaling_ref.empty()) {
      std::fprintf(f, ", \"scaling_ref\": \"%s\"", r.scaling_ref.c_str());
      if (r.scaling_gate > 0) {
        std::fprintf(f, ", \"scaling_gate\": %.2f", r.scaling_gate);
      }
      if (r.measured_scaling >= 0) {
        std::fprintf(f, ", \"measured_scaling\": %.4f", r.measured_scaling);
      }
    }
    if (r.migrations_per_sec >= 0) {
      std::fprintf(f, ", \"migrations_per_sec\": %.1f", r.migrations_per_sec);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
