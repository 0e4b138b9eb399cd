// Shared end-of-run telemetry assembly for the replay engines (Engine and
// RunPolicyReference): snapshots the policy's structured ExportMetrics
// registry into RunResult::telemetry.counters, fills the rest of the
// telemetry block, and folds the run into the obs::Scope via
// RunInstruments::Finalize.
//
// The counters snapshot runs at every obs level (it is end-of-run, not hot
// path), so harness code can read policy counters even when the
// instrumentation layer is compiled out; the phase timings and the
// per-color reconfig vector require RRS_OBS_LEVEL >= 1.
//
// Internal header (engine implementations only).
#pragma once

#include <vector>

#include "core/engine.h"
#include "core/policy.h"
#include "obs/metrics.h"
#include "obs/scope.h"

namespace rrs {
namespace internal {

inline void FinalizeRunTelemetry(const SchedulerPolicy& policy,
                                 obs::RunInstruments& instruments,
                                 const std::vector<uint64_t>& reconfigs_per_color,
                                 RunResult& result) {
  obs::Telemetry& telemetry = result.telemetry;
  telemetry.counters.clear();
  obs::Registry policy_registry;
  policy.ExportMetrics(policy_registry);
  for (const auto& [name, value] : policy_registry.Values()) {
    telemetry.counters[name] = value;
  }
#if RRS_OBS_LEVEL >= 1
  telemetry.reconfigs_per_color = reconfigs_per_color;
  instruments.Finalize(result);
#else
  (void)instruments;
  (void)reconfigs_per_color;
#endif
}

}  // namespace internal
}  // namespace rrs
