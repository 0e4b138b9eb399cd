#include "obs/scope.h"

#include <cstdio>

#include "core/engine.h"

namespace rrs {
namespace obs {

namespace {

Scope* g_global_scope = nullptr;

}  // namespace

Scope* GlobalScope() { return g_global_scope; }
void SetGlobalScope(Scope* scope) { g_global_scope = scope; }

void Scope::Absorb(const RunResult& result, const LogHistogram* phase_ns) {
  const Telemetry& telemetry = result.telemetry;
  std::lock_guard<std::mutex> lock(mutex_);
  ++runs_absorbed_;
  registry_.counter("engine.runs").Add(1);
  registry_.counter("engine.rounds")
      .Add(static_cast<uint64_t>(result.rounds_simulated));
  registry_.counter("engine.arrived").Add(result.arrived);
  registry_.counter("engine.executed").Add(result.executed);
  registry_.counter("engine.drops").Add(result.cost.drops);
  registry_.counter("engine.reconfigs").Add(result.cost.reconfigurations);
  AbsorbPerColor(result.drops_per_color, "engine.drops.color",
                 drops_by_color_);
  AbsorbPerColor(telemetry.reconfigs_per_color, "engine.reconfigs.color",
                 reconfigs_by_color_);
  if (phase_ns != nullptr) {
    for (int p = 0; p < kNumPhases; ++p) {
      if (phase_ns[p].count() != 0) {
        registry_.histogram(std::string("engine.phase.") + PhaseName(p) + ".ns")
            .Merge(phase_ns[p]);
      }
    }
  }
  for (const auto& [name, value] : telemetry.counters) {
    // Policy counters are per-run totals; summing across runs matches the
    // counter semantics of every exporter we feed.
    registry_.counter("policy." + name).Add(static_cast<uint64_t>(value));
  }
}

void Scope::AbsorbPerColor(const std::vector<uint64_t>& counts,
                           const char* prefix,
                           std::vector<Counter*>& handles) {
  if (handles.size() < counts.size()) handles.resize(counts.size(), nullptr);
  for (size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] == 0) continue;
    if (handles[c] == nullptr) {
      handles[c] = &registry_.counter(prefix + std::to_string(c));
    }
    handles[c]->Add(counts[c]);
  }
}

void Scope::AbsorbCounters(
    std::span<const std::pair<std::string_view, uint64_t>> counters) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, delta] : counters) {
    registry_.counter(name).Add(delta);
  }
}

void Scope::AbsorbHistogram(std::string_view name,
                            const LogHistogram& histogram) {
  if (histogram.count() == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  registry_.histogram(name).Merge(histogram);
}

void Scope::AbsorbGauge(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  registry_.gauge(name).Set(value);
}

std::string Scope::RenderPrometheus(std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registry_.ToPrometheus(prefix);
}

std::string Scope::RenderJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registry_.ToJson();
}

std::string Scope::SummaryLine() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Const view of the aggregate; counter() would insert, so go through
  // Values() which only reads.
  const auto values = registry_.Values();
  auto value_of = [&](const char* name) -> unsigned long long {
    auto it = values.find(name);
    return it == values.end() ? 0ull
                              : static_cast<unsigned long long>(it->second);
  };
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "telemetry: runs=%llu rounds=%llu drops=%llu reconfigs=%llu "
                "executed=%llu",
                static_cast<unsigned long long>(runs_absorbed_),
                value_of("engine.rounds"), value_of("engine.drops"),
                value_of("engine.reconfigs"), value_of("engine.executed"));
  std::string out = buf;
  for (int p = 0; p < kNumPhases; ++p) {
    const std::string name =
        std::string("engine.phase.") + PhaseName(p) + ".ns";
    const LogHistogram* hist = registry_.FindHistogram(name);
    if (hist == nullptr || hist->count() == 0) continue;
    std::snprintf(buf, sizeof(buf), " %s[p50/p99]=%.0f/%.0fns", PhaseName(p),
                  hist->Quantile(0.5), hist->Quantile(0.99));
    out += buf;
  }
  return out;
}

#if RRS_OBS_LEVEL >= 1

RunInstruments::RunInstruments(Scope* scope, const char* engine_name) {
  Rebind(scope, engine_name);
}

void RunInstruments::Rebind(Scope* scope, const char* engine_name) {
  scope_ = EffectiveScope(scope);
  tracer_ = nullptr;
  for (int p = 0; p < kNumPhases; ++p) {
    tracks_[p] = nullptr;
    phase_ns_[p].Reset();
  }
  if (scope_ == nullptr) return;
  sample_mask_ = scope_->sample_mask();
  Tracer* tracer = scope_->tracer();
  if (tracer != nullptr) {
    const std::string base =
        "run" + std::to_string(scope_->NextRunId()) + "/" + engine_name + "/";
    for (int p = 0; p < kNumPhases; ++p) {
      tracks_[p] = tracer->RegisterTrack(base + PhaseName(p));
    }
    tracer_ = tracer;
  }
}

void RunInstruments::Finalize(RunResult& result) {
  for (int p = 0; p < kNumPhases; ++p) {
    result.telemetry.phase[p] = SummarizePhase(phase_ns_[p]);
  }
  if (scope_ != nullptr) scope_->Absorb(result, phase_ns_);
}

#endif  // RRS_OBS_LEVEL >= 1

}  // namespace obs
}  // namespace rrs
