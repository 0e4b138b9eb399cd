// Perf-regression gate benchmark (no google-benchmark dependency).
//
// Runs a fixed workload matrix through the engine and writes a JSON report
// (default BENCH_engine.json, or argv[1]) with, per cell:
//
//   rounds_per_sec           simulation throughput
//   jobs_per_sec             arrival throughput
//   steady_allocs_per_round  heap allocations per round in steady state,
//                            measured as (allocs(2H) - allocs(H)) / H so
//                            per-run setup (instance-sized tables, policy
//                            Reset, ring warm-up) cancels out. The engine's
//                            contract is ~0: pending rings, the expiry wheel,
//                            and all policy scratch reuse capacity from round
//                            to round.
//
// tools/bench_compare.py diffs this report against the checked-in
// bench/BENCH_baseline.json and fails on regression; ctest wires the pair up
// under the opt-in "perf" configuration (ctest -C perf -L perf).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/scope.h"
#include "reduce/pipeline.h"
#include "sched/registry.h"
#include "workload/synthetic.h"

// ---- Counting allocator hook ----------------------------------------------
// Counts every global operator-new; frees are uninteresting for the gate.
static std::atomic<uint64_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// RRS_BENCH_SMOKE=1: one iteration per timing window — the tier-1 smoke run
// that proves every cell still executes and emits its metrics. The numbers
// are meaningless and only ever checked for shape (bench_compare.py
// --shape-only), never gated.
bool SmokeMode() {
  static const bool smoke = std::getenv("RRS_BENCH_SMOKE") != nullptr;
  return smoke;
}

rrs::Instance MakeBenchInstance(size_t colors, rrs::Round rounds,
                                uint64_t seed) {
  // Same shape as bench_e9_throughput's workload: delay bounds cycling
  // {1..32}, rate-limited Poisson arrivals at rate 0.5 per color.
  std::vector<rrs::workload::ColorSpec> specs;
  const rrs::Round delays[] = {1, 2, 4, 8, 16, 32};
  for (size_t c = 0; c < colors; ++c) {
    specs.push_back({delays[c % 6], 0.5});
  }
  rrs::workload::PoissonOptions gen;
  gen.rounds = rounds;
  gen.rate_limited = true;
  gen.seed = seed;
  return MakePoisson(specs, gen);
}

struct Cell {
  const char* policy;  // registry name, or "pipeline" for reduce::SolveOnline
  size_t colors;
  uint32_t resources;
  // Stamped as the cell's alloc_budget (bench_compare.py gates the cell at
  // it instead of the flat --alloc-budget); negative = no own budget.
  double alloc_budget;
};

struct CellResult {
  std::string name;
  double alloc_budget = -1;
  double rounds_per_sec = 0;
  double jobs_per_sec = 0;
  double steady_allocs_per_round = 0;
  // Sampled phase wall-time medians (0 when the obs layer is compiled out).
  double phase_p50_ns[rrs::obs::kNumPhases] = {};
};

CellResult RunCell(const Cell& cell) {
  constexpr rrs::Round kRounds = 4096;
  const double kMinSeconds = SmokeMode() ? 0.0 : 0.3;

  // Every cell runs with a metrics-only scope attached, so the gate measures
  // the default-on observability overhead rather than the bare engine.
  rrs::obs::Scope scope;

  rrs::EngineOptions options;
  options.num_resources = cell.resources;
  options.cost_model.delta = 4;
  options.obs_scope = &scope;

  const bool pipeline = std::string(cell.policy) == "pipeline";
  const rrs::Instance inst = MakeBenchInstance(cell.colors, kRounds, 7);
  auto policy = pipeline ? nullptr : rrs::MakePolicy(cell.policy);
  auto run_once = [&](const rrs::Instance& instance) {
    if (pipeline) {
      auto result = rrs::reduce::SolveOnline(instance, options);
      return result.validation.executed + result.cost().drops;
    }
    rrs::RunResult r = rrs::RunPolicy(instance, *policy, options);
    return r.arrived;
  };

  CellResult out;
  out.name = std::string(cell.policy) + "/" + std::to_string(cell.colors) +
             "c/" + std::to_string(cell.resources) + "r";
  out.alloc_budget = cell.alloc_budget;

  // Throughput: repeat full runs until the cell has kMinSeconds of samples.
  run_once(inst);  // warm-up (page-in, ring growth)
  uint64_t iters = 0;
  uint64_t jobs = 0;
  const auto start = Clock::now();
  auto now = start;
  do {
    jobs += run_once(inst);
    ++iters;
    now = Clock::now();
  } while (Seconds(start, now) < kMinSeconds);
  const double elapsed = Seconds(start, now);
  out.rounds_per_sec = static_cast<double>(iters * kRounds) / elapsed;
  out.jobs_per_sec = static_cast<double>(jobs) / elapsed;

  for (int p = 0; p < rrs::obs::kNumPhases; ++p) {
    const std::string hist_name =
        std::string("engine.phase.") + rrs::obs::PhaseName(p) + ".ns";
    const rrs::obs::LogHistogram* hist =
        scope.registry().FindHistogram(hist_name);
    if (hist != nullptr && hist->count() > 0) {
      out.phase_p50_ns[p] = hist->Quantile(0.5);
    }
  }

  // Steady-state allocations: horizon-H vs horizon-2H runs; the difference
  // isolates per-round allocation from per-run setup.
  constexpr rrs::Round kH = 2048;
  const rrs::Instance inst_h = MakeBenchInstance(cell.colors, kH, 11);
  const rrs::Instance inst_2h = MakeBenchInstance(cell.colors, 2 * kH, 11);
  auto measure = [&](const rrs::Instance& instance) {
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    run_once(instance);
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  // Warm up on the longer run: colors it drops on or recolors first create
  // their obs counters here, not inside the measured pair.
  measure(inst_2h);
  const uint64_t allocs_h = measure(inst_h);
  const uint64_t allocs_2h = measure(inst_2h);
  const uint64_t extra = allocs_2h > allocs_h ? allocs_2h - allocs_h : 0;
  out.steady_allocs_per_round =
      static_cast<double>(extra) / static_cast<double>(kH);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_engine.json";

  // The engine cells' contract is exactly zero steady-state allocations
  // (DESIGN §3.5). The pipeline cell keeps the flat budget: its
  // InstanceBuilder::Build grows with the instance.
  const Cell cells[] = {
      {"static", 128, 8, 0},
      {"dlru", 128, 8, 0},
      {"dlru-edf", 128, 8, 0},
      {"dlru-edf", 32, 4, 0},
      {"pipeline", 32, 8, -1},
  };

  std::vector<CellResult> results;
  for (const Cell& cell : cells) {
    results.push_back(RunCell(cell));
    const CellResult& r = results.back();
    std::printf("%-20s %12.0f rounds/s %12.0f jobs/s %8.4f allocs/round\n",
                r.name.c_str(), r.rounds_per_sec, r.jobs_per_sec,
                r.steady_allocs_per_round);
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"rounds_per_sec\": %.1f, "
                 "\"jobs_per_sec\": %.1f, \"steady_allocs_per_round\": %.4f",
                 r.name.c_str(), r.rounds_per_sec, r.jobs_per_sec,
                 r.steady_allocs_per_round);
    if (r.alloc_budget >= 0) {
      std::fprintf(f, ", \"alloc_budget\": %.4f", r.alloc_budget);
    }
    // Informational phase-time breakdown (not gated; bench_compare.py only
    // diffs metrics present in the checked-in baseline).
    for (int p = 0; p < rrs::obs::kNumPhases; ++p) {
      std::fprintf(f, ", \"phase_%s_p50_ns\": %.1f", rrs::obs::PhaseName(p),
                   r.phase_p50_ns[p]);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
