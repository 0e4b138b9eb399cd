// Snapshot perf-regression gate (no google-benchmark dependency).
//
// Measures the cost of checkpointing a long-horizon session and writes a
// JSON report (default BENCH_snapshot.json, or argv[1]) with, per cell:
//
//   snapshots_per_sec     full snapshot+restore cycles per second for a
//                         mid-run session (snapshot the open run, then
//                         restore it into a second warm engine)
//   simulate_ms           wall time of one uninterrupted full-horizon run
//   snapshot_restore_ms   wall time of one snapshot+restore cycle
//   snapshot_overhead_pct snapshot_restore_ms / simulate_ms * 100
//   snapshot_words        serialized size of the checkpoint (u64 words)
//
// The binary self-enforces the checkpoint contract that makes migrating
// and failing over fleet tenants viable: one snapshot+restore cycle of a 10k-round
// session must cost < 5% of simulating the session outright (exit 1
// otherwise). tools/bench_compare.py additionally diffs the report against
// the checked-in bench/BENCH_snapshot.json and fails on a
// snapshots_per_sec regression; ctest wires the pair up under the opt-in
// "perf" configuration (ctest -C perf -L perf).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine.h"
#include "sched/dlru_edf.h"
#include "snapshot/codec.h"
#include "workload/synthetic.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// RRS_BENCH_SMOKE=1: one iteration per timing window and no contract
// enforcement — the tier-1 smoke run that proves every cell still executes
// and emits its metrics; numbers are only ever checked for shape
// (bench_compare.py --shape-only), never gated.
bool SmokeMode() {
  static const bool smoke = std::getenv("RRS_BENCH_SMOKE") != nullptr;
  return smoke;
}

struct Cell {
  const char* name;
  rrs::Round rounds;       // session horizon
  rrs::Round checkpoint;   // round at which the session is checkpointed
  size_t colors;
};

struct CellResult {
  std::string name;
  double snapshots_per_sec = 0;
  double simulate_ms = 0;
  double snapshot_restore_ms = 0;
  double snapshot_overhead_pct = 0;
  uint64_t snapshot_words = 0;
};

rrs::Instance MakeTenant(rrs::Round rounds, size_t colors) {
  std::vector<rrs::workload::ColorSpec> specs;
  std::vector<rrs::Round> delays = {1, 2, 4, 8, 16, 32};
  for (size_t c = 0; c < colors; ++c) {
    specs.push_back({delays[c % delays.size()], 0.5});
  }
  rrs::workload::PoissonOptions gen;
  gen.rounds = rounds;
  gen.rate_limited = true;
  gen.seed = 0x5eed;
  return MakePoisson(specs, gen);
}

CellResult RunCell(const Cell& cell) {
  // Best-of-N timing windows, like the other perf-gate binaries: the max
  // rate over independent windows is robust to scheduler interference.
  const int kWindows = SmokeMode() ? 1 : 3;
  const double kWindowSeconds = SmokeMode() ? 0.0 : 0.12;

  const rrs::Instance instance = MakeTenant(cell.rounds, cell.colors);
  rrs::EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 4;

  CellResult out;
  out.name = cell.name;

  // Uninterrupted simulate time over a warm engine: the denominator of the
  // overhead contract.
  rrs::Engine engine(instance, options);
  rrs::DlruEdfPolicy policy;
  auto full_run = [&] {
    rrs::RunResult result;
    engine.BeginRun(policy);
    while (engine.StepRounds(cell.rounds)) {
    }
    engine.FinishRun(result);
  };
  full_run();  // warm-up (table/ring/scratch sizing)
  double best_runs_per_sec = 0;
  for (int w = 0; w < kWindows; ++w) {
    uint64_t iters = 0;
    const auto start = Clock::now();
    auto now = start;
    do {
      full_run();
      ++iters;
      now = Clock::now();
    } while (Seconds(start, now) < kWindowSeconds);
    best_runs_per_sec = std::max(
        best_runs_per_sec, static_cast<double>(iters) / Seconds(start, now));
  }
  out.simulate_ms = 1000.0 / best_runs_per_sec;

  // Snapshot+restore cycles of a mid-run session: checkpoint the donor's
  // open run, restore it into a second warm engine, tear the restored run
  // back down. Buffers are reused so the steady-state cycle is what a warm
  // fleet pays per migration or failover.
  engine.BeginRun(policy);
  engine.StepRounds(cell.checkpoint);
  rrs::Engine target(instance, options);
  rrs::DlruEdfPolicy target_policy;
  rrs::snapshot::Writer writer;
  auto cycle = [&] {
    writer.Clear();
    engine.SnapshotRun(writer);
    rrs::snapshot::Reader reader(writer.words());
    target.Reset(instance, options);
    target.RestoreRun(target_policy, reader);
    target.AbortRun();
  };
  cycle();  // warm-up
  out.snapshot_words = writer.words().size();
  double best_cycles_per_sec = 0;
  for (int w = 0; w < kWindows; ++w) {
    uint64_t iters = 0;
    const auto start = Clock::now();
    auto now = start;
    do {
      cycle();
      ++iters;
      now = Clock::now();
    } while (Seconds(start, now) < kWindowSeconds);
    best_cycles_per_sec = std::max(
        best_cycles_per_sec, static_cast<double>(iters) / Seconds(start, now));
  }
  engine.AbortRun();

  out.snapshots_per_sec = best_cycles_per_sec;
  out.snapshot_restore_ms = 1000.0 / best_cycles_per_sec;
  out.snapshot_overhead_pct = 100.0 * out.snapshot_restore_ms / out.simulate_ms;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_snapshot.json";

  // The headline cell is the acceptance contract: a 10k-round session
  // checkpointed mid-run. The small cell tracks the fixed per-cycle cost
  // that dominates short migrated tenants.
  const Cell cells[] = {
      {"snapshot/10k-rounds/16c", 10000, 5000, 16},
      {"snapshot/256-rounds/16c", 256, 128, 16},
  };
  constexpr double kMaxOverheadPct = 5.0;  // contract: gate on the 10k cell

  std::vector<CellResult> results;
  bool over_budget = false;
  for (const Cell& cell : cells) {
    results.push_back(RunCell(cell));
    const CellResult& r = results.back();
    std::printf(
        "%-26s %10.0f snapshots/s  sim %8.2f ms  cycle %6.3f ms "
        "(%.2f%% of sim)  %llu words\n",
        r.name.c_str(), r.snapshots_per_sec, r.simulate_ms,
        r.snapshot_restore_ms, r.snapshot_overhead_pct,
        static_cast<unsigned long long>(r.snapshot_words));
    if (!SmokeMode() && cell.rounds >= 10000 &&
        r.snapshot_overhead_pct >= kMaxOverheadPct) {
      over_budget = true;
      std::fprintf(stderr,
                   "%s: snapshot+restore is %.2f%% of simulate time, "
                   "contract requires < %.1f%%\n",
                   r.name.c_str(), r.snapshot_overhead_pct, kMaxOverheadPct);
    }
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
                 "    {\"name\": \"%s\", \"snapshots_per_sec\": %.1f, "
                 "\"simulate_ms\": %.3f, \"snapshot_restore_ms\": %.4f, "
                 "\"snapshot_overhead_pct\": %.3f, \"snapshot_words\": %llu}%s\n",
                 r.name.c_str(), r.snapshots_per_sec, r.simulate_ms,
                 r.snapshot_restore_ms, r.snapshot_overhead_pct,
                 static_cast<unsigned long long>(r.snapshot_words),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return over_budget ? 1 : 0;
}
