#include "workload/synthetic.h"

#include "workload/arrival_source.h"
#include "workload/source.h"

namespace rrs {
namespace workload {

// The builders are materialized views over the streaming sources
// (workload/source.h): one construction path, two consumption modes.
// golden_trace_test pins that these emit the exact pre-streaming bytes.

Instance MakePoisson(const std::vector<ColorSpec>& colors,
                     const PoissonOptions& options) {
  PoissonSource source(colors, options);
  return Materialize(source);
}

Instance MakeBursty(const std::vector<ColorSpec>& colors,
                    const BurstyOptions& options) {
  BurstySource source(colors, options);
  return Materialize(source);
}

Instance MakeZipf(const ZipfOptions& options) {
  ZipfSource source(options);
  return Materialize(source);
}

}  // namespace workload
}  // namespace rrs
