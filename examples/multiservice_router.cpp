// Multi-service router example (the paper's motivating network-processor
// application): four QoS classes (voice/video/web/bulk) with per-service
// delay tolerances and sinusoidally shifting load. Compares the paper's
// online algorithm against baselines and reports per-service drop rates.
//
//   ./multiservice_router [--n=16] [--delta=8] [--rounds=2048] [--seed=1]
//                         [--csv=out.csv]
#include <cstdio>

#include "core/engine.h"
#include "offline/lower_bound.h"
#include "reduce/pipeline.h"
#include "sched/registry.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/scenarios.h"

int main(int argc, char** argv) {
  rrs::FlagSet flags;
  flags.DefineInt("n", 16, "online resources (divisible by 4)")
      .DefineInt("delta", 8, "reconfiguration cost")
      .DefineInt("rounds", 2048, "trace length in rounds")
      .DefineInt("seed", 1, "workload seed")
      .DefineString("csv", "", "optional CSV output path");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Help("multiservice_router").c_str());
    return 0;
  }

  rrs::workload::RouterOptions gen;
  gen.rounds = flags.GetInt("rounds");
  gen.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  auto services = rrs::workload::DefaultRouterServices();
  rrs::Instance instance = rrs::workload::MakeRouterScenario(services, gen);
  std::printf("router trace: %s\n\n", instance.Summary().c_str());

  rrs::EngineOptions options;
  options.num_resources = static_cast<uint32_t>(flags.GetInt("n"));
  options.cost_model.delta = static_cast<uint64_t>(flags.GetInt("delta"));

  rrs::Table table({"algorithm", "reconfigs", "drops", "total_cost",
                    "voice_drop%", "video_drop%", "web_drop%", "bulk_drop%"});

  auto drop_pct = [&](const std::vector<uint64_t>& drops, rrs::ColorId c) {
    uint64_t total = instance.jobs_per_color()[c];
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(drops[c]) /
                            static_cast<double>(total);
  };

  for (const char* name : {"greedy-edf", "lazy-greedy", "static", "dlru",
                           "edf", "dlru-edf"}) {
    auto policy = rrs::MakePolicy(name);
    rrs::RunResult r = rrs::RunPolicy(instance, *policy, options);
    table.AddRow()
        .Cell(name)
        .Cell(r.cost.reconfigurations)
        .Cell(r.cost.drops)
        .Cell(r.total_cost(options.cost_model))
        .Cell(drop_pct(r.drops_per_color, 0), 1)
        .Cell(drop_pct(r.drops_per_color, 1), 1)
        .Cell(drop_pct(r.drops_per_color, 2), 1)
        .Cell(drop_pct(r.drops_per_color, 3), 1);
  }

  // The guaranteed pipeline (Theorem 3) and the certified OPT lower bound.
  auto pipeline = rrs::reduce::SolveOnline(instance, options);
  {
    // Per-service drops for the pipeline, recomputed from the validated
    // schedule: drops = arrivals - executions per color.
    std::vector<uint64_t> executed(instance.num_colors(), 0);
    for (const auto& exec : pipeline.schedule.executions()) {
      ++executed[instance.job(exec.job).color];
    }
    std::vector<uint64_t> drops(instance.num_colors());
    for (rrs::ColorId c = 0; c < instance.num_colors(); ++c) {
      drops[c] = instance.jobs_per_color()[c] - executed[c];
    }
    table.AddRow()
        .Cell("dlru-edf pipeline")
        .Cell(pipeline.cost().reconfigurations)
        .Cell(pipeline.cost().drops)
        .Cell(pipeline.cost().total(options.cost_model))
        .Cell(drop_pct(drops, 0), 1)
        .Cell(drop_pct(drops, 1), 1)
        .Cell(drop_pct(drops, 2), 1)
        .Cell(drop_pct(drops, 3), 1);
  }

  std::printf("%s\n", table.ToAscii().c_str());
  std::printf("certified OPT lower bound (m=%u): %llu\n",
              options.num_resources / 8 + 1,
              static_cast<unsigned long long>(rrs::offline::LowerBound(
                  instance, options.num_resources / 8 + 1,
                  options.cost_model)));

  const std::string csv = flags.GetString("csv");
  if (!csv.empty()) {
    if (table.WriteCsv(csv)) {
      std::printf("wrote %s\n", csv.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", csv.c_str());
      return 1;
    }
  }
  return 0;
}
