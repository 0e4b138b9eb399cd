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
// TenantSpec references a spec id).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "snapshot/codec.h"
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

// One snapshot::kTagDistSource section per spec.
void PutGeneratorSpec(snapshot::Writer& w, const GeneratorSpec& spec);
GeneratorSpec GetGeneratorSpec(snapshot::Reader& r);

}  // namespace workload
}  // namespace rrs
