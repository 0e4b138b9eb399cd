// Telemetry: the structured per-run snapshot carried by RunResult.
//
// The snapshot holds what RunResult's own figures do not: per-color
// reconfiguration counts, per-phase wall-time summaries (from sampled
// LogHistograms), and a flat counter map fed by
// SchedulerPolicy::ExportMetrics. The run's totals (arrived, executed,
// drops, reconfigurations, rounds, per-color drops) live in RunResult only,
// so harness code reads one record at every obs level.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/level.h"

namespace rrs {
namespace obs {

class LogHistogram;

// The engine's four round phases, in model order (Section 2).
enum EnginePhase : int {
  kPhaseDrop = 0,
  kPhaseArrival = 1,
  kPhaseReconfig = 2,
  kPhaseExecute = 3,
  kNumPhases = 4,
};

const char* PhaseName(int phase);  // "drop", "arrival", "reconfig", "execute"

// Summary of one phase's sampled wall-time distribution (nanoseconds).
struct PhaseStat {
  uint64_t samples = 0;
  uint64_t total_ns = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  uint64_t max_ns = 0;
};

PhaseStat SummarizePhase(const LogHistogram& hist);

struct Telemetry {
  std::vector<uint64_t> reconfigs_per_color;

  PhaseStat phase[kNumPhases];

  // Structured policy/extension counters (SchedulerPolicy::ExportMetrics,
  // flattened).
  std::map<std::string, double> counters;
};

}  // namespace obs
}  // namespace rrs
