// E12 — streaming-mode performance (google-benchmark): per-round latency and
// throughput of the incremental OnlineSolver vs the offline replay pipeline
// on the same workload. The streaming path is what a
// deployment would run; its per-round cost must be flat (no hidden
// whole-trace work).
#include <benchmark/benchmark.h>

#include "core/engine.h"
#include "reduce/online.h"
#include "reduce/pipeline.h"
#include "workload/synthetic.h"

namespace {

rrs::Instance StreamWorkload(rrs::Round rounds, uint64_t seed) {
  std::vector<rrs::workload::ColorSpec> specs = {
      {1, 0.5}, {2, 0.6}, {4, 0.6}, {8, 0.4}, {16, 0.4}, {32, 0.2}};
  rrs::workload::PoissonOptions gen;
  gen.rounds = rounds;
  gen.seed = seed;
  return MakePoisson(specs, gen);
}

// Pre-extracted per-round arrival lists so feeding cost is not measured.
std::vector<std::vector<std::pair<rrs::ColorId, uint64_t>>> ExtractRounds(
    const rrs::Instance& instance) {
  std::vector<std::vector<std::pair<rrs::ColorId, uint64_t>>> rounds(
      static_cast<size_t>(instance.num_request_rounds()));
  for (rrs::Round k = 0; k < instance.num_request_rounds(); ++k) {
    auto jobs = instance.jobs_in_round(k);
    size_t i = 0;
    while (i < jobs.size()) {
      rrs::ColorId c = jobs[i].color;
      uint64_t count = 0;
      while (i < jobs.size() && jobs[i].color == c) {
        ++count;
        ++i;
      }
      rounds[static_cast<size_t>(k)].emplace_back(c, count);
    }
  }
  return rounds;
}

void BM_OnlineSolver(benchmark::State& state) {
  const rrs::Round rounds = state.range(0);
  rrs::Instance instance = StreamWorkload(rounds, 3);
  auto per_round = ExtractRounds(instance);
  std::vector<rrs::reduce::OnlineSolver::ColorSpec> colors;
  for (rrs::ColorId c = 0; c < instance.num_colors(); ++c) {
    colors.push_back({instance.delay_bound(c), /*max_subcolors=*/8});
  }
  rrs::EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 4;

  for (auto _ : state) {
    rrs::reduce::OnlineSolver solver(colors, options);
    for (const auto& arrivals : per_round) solver.Step(arrivals);
    solver.Finish();
    benchmark::DoNotOptimize(solver.cost().drops);
  }
  state.counters["rounds/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(rounds),
      benchmark::Counter::kIsRate);
}

void BM_OfflinePipeline(benchmark::State& state) {
  const rrs::Round rounds = state.range(0);
  rrs::Instance instance = StreamWorkload(rounds, 3);
  rrs::EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 4;
  for (auto _ : state) {
    auto result = rrs::reduce::SolveOnline(instance, options);
    benchmark::DoNotOptimize(result.validation.executed);
  }
  state.counters["rounds/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(rounds),
      benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK(BM_OnlineSolver)->Arg(1024)->Arg(8192);
BENCHMARK(BM_OfflinePipeline)->Arg(1024)->Arg(8192);

BENCHMARK_MAIN();
