// Experiment exporter: runs the full table-producing experiment suite
// (E1-E8, E10, E13-E15, default parameters) and writes each table as CSV
// and JSON into an output directory, printing the ASCII form along the way.
// The machine-readable exports are what a paper-reproduction artifact
// review would consume.
//
//   ./run_experiments [--outdir=results] [--only=E1]
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "analysis/suite.h"
#include "obs/scope.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  rrs::FlagSet flags;
  flags.DefineString("outdir", "results", "directory for CSV/JSON exports")
      .DefineString("only", "", "run a single experiment id (e.g. E3)");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Help("run_experiments").c_str());
    return 0;
  }

  const std::string outdir = flags.GetString("outdir");
  const std::string only = flags.GetString("only");
  std::error_code ec;
  std::filesystem::create_directories(outdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", outdir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  int ran = 0;
  for (const auto& spec : rrs::analysis::ExperimentSuite()) {
    if (!only.empty() && spec.id != only) continue;
    std::printf("==== %s: %s ====\nclaim: %s\n\n", spec.id.c_str(),
                spec.title.c_str(), spec.claim.c_str());
    // Experiments build their own engine runs internally, so telemetry is
    // collected through the global-scope fallback; one scope per experiment
    // keeps the footer line per-experiment. Installed from this
    // single-threaded section, as the scope contract requires.
    rrs::obs::Scope scope;
    rrs::obs::SetGlobalScope(&scope);
    rrs::Table table = spec.run();
    rrs::obs::SetGlobalScope(nullptr);
    std::printf("%s\n", table.ToAscii().c_str());
    if (scope.runs_absorbed() > 0) {
      std::printf("%s\n\n", scope.SummaryLine().c_str());
    }

    const std::string base = outdir + "/" + spec.id;
    if (!table.WriteCsv(base + ".csv")) {
      std::fprintf(stderr, "failed to write %s.csv\n", base.c_str());
      return 1;
    }
    std::ofstream json(base + ".json");
    json << table.ToJson();
    if (!json) {
      std::fprintf(stderr, "failed to write %s.json\n", base.c_str());
      return 1;
    }
    ++ran;
  }
  if (ran == 0) {
    std::fprintf(stderr, "no experiment matched '%s'\n", only.c_str());
    return 1;
  }
  std::printf("wrote %d experiment exports to %s/\n", ran, outdir.c_str());
  return 0;
}
