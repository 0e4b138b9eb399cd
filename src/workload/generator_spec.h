// Wire-compact description of a streaming generator source.
//
// The dist fleet ships tenants to workers as messages of uint64 words
// (fleet/dist/protocol.h). A materialized tenant costs O(jobs) words; a
// GeneratorSpec costs O(colors) words and the worker instantiates the
// ArrivalSource locally — same bits, since the sources are deterministic in
// the spec. One spec struct covers every generator family: `delays` holds
// the per-color delay bounds (or the family's delay_choices cycle), `rates`
// the per-color rate parameters, `extra` the family's scalar knobs in a
// fixed documented order (see MakeSource), `names` any per-color name
// strings the family carries (router services).
//
// Specs are value types with operator== so controllers can dedupe: tenants
// sharing one spec ship it once (kMsgAddSources carries a spec table;
// TenantSpec references a spec id). Fields below is the spec's wire layout
// (snapshot/fields.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "workload/arrival_source.h"
#include "workload/memctrl.h"
#include "workload/scenarios.h"
#include "workload/synthetic.h"

namespace rrs {
namespace workload {

struct GeneratorSpec {
  ArrivalSource::Family family = ArrivalSource::Family::kPoisson;
  uint64_t seed = 1;
  Round rounds = 0;
  bool batched = false;
  bool rate_limited = false;
  std::vector<Round> delays;
  std::vector<double> rates;
  std::vector<double> extra;
  std::vector<std::string> names;

  friend bool operator==(const GeneratorSpec& a,
                         const GeneratorSpec& b) = default;
};
template <class Io>
void Fields(Io& io, GeneratorSpec& m) {
  io(m.family, m.seed, m.rounds, m.batched, m.rate_limited, m.delays, m.rates,
     m.extra, m.names);
}

// Spec builders, one per family (inverse of MakeSource).
GeneratorSpec PoissonSpec(const std::vector<ColorSpec>& colors,
                          const PoissonOptions& options);
GeneratorSpec BurstySpec(const std::vector<ColorSpec>& colors,
                         const BurstyOptions& options);
GeneratorSpec ZipfSpec(const ZipfOptions& options);
GeneratorSpec RouterSpec(const std::vector<RouterService>& services,
                         const RouterOptions& options);
GeneratorSpec DatacenterSpec(const DatacenterOptions& options);
GeneratorSpec MemctrlSpec(const MemctrlOptions& options);

// Instantiates the source a spec describes. Aborts on a family that cannot
// ship as a spec (kInstance, kPush and the reserved ids).
std::unique_ptr<ArrivalSource> MakeSource(const GeneratorSpec& spec);

}  // namespace workload
}  // namespace rrs
