#include "obs/telemetry.h"

#include "obs/metrics.h"

namespace rrs {
namespace obs {

const char* PhaseName(int phase) {
  switch (phase) {
    case kPhaseDrop:
      return "drop";
    case kPhaseArrival:
      return "arrival";
    case kPhaseReconfig:
      return "reconfig";
    case kPhaseExecute:
      return "execute";
    default:
      return "unknown";
  }
}

PhaseStat SummarizePhase(const LogHistogram& hist) {
  PhaseStat stat;
  stat.samples = hist.count();
  stat.total_ns = hist.sum();
  stat.p50_ns = hist.Quantile(0.5);
  stat.p99_ns = hist.Quantile(0.99);
  stat.max_ns = hist.max();
  return stat;
}

}  // namespace obs
}  // namespace rrs
