// Perf-regression gate for the robust (interval-uncertainty) offline solver
// (no google-benchmark dependency; same plain-JSON pattern as
// bench_offline_solver).
//
// Runs a fixed windowed-instance matrix through offline::SolveRobust and
// writes a JSON report (default BENCH_offline_robust.json, or argv[1])
// with, per cell:
//
//   states_per_sec   expanded interval states per second of solve wall time
//   solve_ms         mean wall time of one full robust solve
//   states_expanded  expansions per solve (informational, pins search size)
//   bracket_width    upper_bound - lower_bound (informational, pins the
//                    certified bracket the dominance rule achieves)
//   exact            1 when the solve finished inside the state budget
//
// Cell design notes:
//   * robust/w0/... runs the zero-width lift of the concrete gate's medium
//     instance — the interval machinery degenerates to the concrete solve,
//     so this cell prices the (rel, lo, hi) representation overhead against
//     bench_offline_solver's packed/m2/4c/h48 cell.
//   * robust/w2 and robust/w4 widen every window symmetrically; wider
//     windows inflate the pessimistic envelope and stress the containment
//     dominance merge (interval states stop being degenerate).
//   * robust/m4/6c is the m=4-resource envelope cell backing EXPERIMENTS.md
//     E20's bracket-width table.
//
// tools/bench_compare.py diffs this report against the checked-in
// bench/BENCH_offline_robust.json and fails on regression; ctest wires the
// pair up under the opt-in "perf" configuration (ctest -C perf -L perf).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/instance.h"
#include "offline/robust_optimal.h"
#include "util/rng.h"
#include "workload/uncertain.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// RRS_BENCH_SMOKE=1: one solve per cell — the tier-1 smoke run that proves
// every cell still executes and emits its metrics; numbers are only ever
// checked for shape (bench_compare.py --shape-only), never gated.
bool SmokeMode() {
  static const bool smoke = std::getenv("RRS_BENCH_SMOKE") != nullptr;
  return smoke;
}

// The concrete offline gate's medium instance (bench_offline_solver's
// MakeMediumInstance), reused verbatim so the zero-width cell is directly
// comparable against packed/m2/4c/h48 there.
rrs::Instance MakeMediumInstance() {
  rrs::InstanceBuilder b;
  rrs::ColorId colors[4];
  static const rrs::Round kDelays[4] = {2, 4, 8, 16};
  for (int c = 0; c < 4; ++c) colors[c] = b.AddColor(kDelays[c], "", 1);
  rrs::Rng rng(41);
  for (rrs::Round t = 0; t + 3 <= 48; t += 3) {
    b.AddJob(colors[rng.NextBounded(4)], t);
    b.AddJob(colors[rng.NextBounded(4)], t + rng.NextBounded(3));
  }
  return b.Build();
}

// m=4, 6 colors: the E20 windowed acceptance set. Smaller than the concrete
// gate's h128 envelope instance — every non-degenerate window multiplies
// the pessimistic envelope, so the horizon is held to 32 to keep the cell
// inside the state budget.
rrs::workload::UncertainInstance MakeWindowedEnvelopeSet() {
  rrs::workload::UncertainInstance set;
  rrs::ColorId colors[6];
  static const rrs::Round kDelays[6] = {2, 4, 4, 8, 16, 32};
  for (int c = 0; c < 6; ++c) {
    colors[c] = set.AddColor(kDelays[c], "", 1 + c % 2);
  }
  rrs::Rng rng(97);
  for (rrs::Round t = 0; t + 4 <= 32; t += 4) {
    set.AddJob(colors[rng.NextBounded(6)], t, t + 1);
    const rrs::Round lo = t + rng.NextBounded(4);
    set.AddJob(colors[rng.NextBounded(6)], lo, lo + 2);
  }
  return set;
}

struct CellResult {
  std::string name;
  double states_per_sec = 0;
  double solve_ms = 0;
  double states_expanded = 0;
  double bracket_width = 0;
  int exact = 1;
};

CellResult RunRobust(const std::string& name,
                     const rrs::workload::UncertainInstance& set, uint32_t m,
                     uint64_t delta) {
  const double kMinSeconds = SmokeMode() ? 0.0 : 0.3;
  CellResult out;
  out.name = name;
  rrs::offline::OptimalOptions options;
  options.num_resources = m;
  options.cost_model.delta = delta;
  auto solve = [&] {
    auto r = rrs::offline::SolveRobust(set, options);
    out.states_expanded = static_cast<double>(r.states_expanded);
    out.bracket_width = static_cast<double>(r.upper_bound - r.lower_bound);
    out.exact = r.exact ? 1 : 0;
  };
  solve();  // warm-up (page-in, arena growth)
  uint64_t iters = 0;
  uint64_t expanded = 0;
  const auto start = Clock::now();
  auto now = start;
  do {
    solve();
    expanded += static_cast<uint64_t>(out.states_expanded);
    ++iters;
    now = Clock::now();
  } while (Seconds(start, now) < kMinSeconds);
  const double elapsed = Seconds(start, now);
  out.states_per_sec = static_cast<double>(expanded) / elapsed;
  out.solve_ms = elapsed * 1e3 / static_cast<double>(iters);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_offline_robust.json";

  const rrs::Instance medium = MakeMediumInstance();
  using rrs::workload::UncertainInstance;
  const UncertainInstance zero = UncertainInstance::FromInstance(medium, 0, 0);
  const UncertainInstance w2 = UncertainInstance::FromInstance(medium, 1, 1);
  const UncertainInstance w4 = UncertainInstance::FromInstance(medium, 2, 2);
  const UncertainInstance envelope = MakeWindowedEnvelopeSet();

  std::vector<CellResult> results;
  results.push_back(RunRobust("robust/w0/m2/4c/h48", zero, 2, 3));
  results.push_back(RunRobust("robust/w2/m2/4c/h48", w2, 2, 3));
  results.push_back(RunRobust("robust/w4/m2/4c/h48", w4, 2, 3));
  results.push_back(RunRobust("robust/m4/6c/h32", envelope, 4, 2));

  for (const CellResult& r : results) {
    std::printf(
        "%-24s %12.0f states/s %10.2f ms %10.0f expanded width=%.0f "
        "exact=%d\n",
        r.name.c_str(), r.states_per_sec, r.solve_ms, r.states_expanded,
        r.bracket_width, r.exact);
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"states_per_sec\": %.1f, "
                 "\"solve_ms\": %.3f, \"states_expanded\": %.0f, "
                 "\"bracket_width\": %.0f, \"exact\": %d}%s\n",
                 r.name.c_str(), r.states_per_sec, r.solve_ms,
                 r.states_expanded, r.bracket_width, r.exact,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
