// stackbench entry point. Run it through stackbench/run.py, which builds it:
//
//   python3 stackbench/run.py --workload fleet-lanes --seed 1
//       --seconds 10 --trace 0
//
// The last line of standard output is the result JSON.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"

namespace stackbench {
namespace {

struct Args {
  WorkloadKind kind = WorkloadKind::kFleetLanes;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  bool corrupt_oracle = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "stackbench: %s\n"
               "usage: stackbench --workload "
               "fleet-lanes|fleet-churn|dist-ckpt|ratio-audit --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--quick] "
               "[--corrupt-oracle]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      if (!ParseWorkload(value(), &args.kind)) Usage("unknown workload");
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--quick") {
      args.quick = true;
    } else if (flag == "--corrupt-oracle") {
      args.corrupt_oracle = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

// A run never measures longer than this, whatever --seconds says, so it
// ends well inside the 180 s a run may take.
constexpr double kMaxLoopSeconds = 90;

struct OpLoop {
  std::vector<double> latency_s;  // on the workload's clock (CpuSpan)
  std::vector<double> wall_s;     // on the wall clock, for the report
  std::vector<uint64_t> rounds;
  uint64_t failed = 0;

  // Σ rounds / Σ op time over all ops.
  static double RoundsPerS(const std::vector<uint64_t>& rounds,
                           const std::vector<double>& seconds) {
    double busy = 0;
    uint64_t total = 0;
    for (size_t i = 0; i < rounds.size(); ++i) {
      busy += seconds[i];
      total += rounds[i];
    }
    return busy > 0 ? total / busy : 0;
  }
  double rounds_per_s() const { return RoundsPerS(rounds, latency_s); }
  double wall_rounds_per_s() const { return RoundsPerS(rounds, wall_s); }
};

// Runs op `i` closed-loop, times it, then checks it outside the timed span.
void TimedOp(Workload& workload, size_t i, SpanLog* log, const char* op_name,
             OpLoop* loop) {
  const CpuSpan cpu;
  const Clock::time_point t0 = Clock::now();
  uint64_t rounds = 0;
  {
    ScopedSpan span(log, op_name, i);
    rounds = workload.RunOp(i, log);
  }
  const double wall = SecondsSince(t0);
  const double cpu_s = cpu.Seconds();
  loop->wall_s.push_back(wall);
  loop->latency_s.push_back(workload.runs_in_workers() ? wall : cpu_s);
  loop->rounds.push_back(rounds);
  if (!workload.CheckOp(i)) ++loop->failed;
}

int RunUntraced(const Args& args, const Sizing& sizing,
                MachineContext& context) {
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::unique_ptr<Workload> workload;
  for (size_t rep = 0; rep < sizing.setup_reps; ++rep) {
    workload.reset();
    std::unique_ptr<Workload> fresh = MakeWorkload(args.kind, sizing);
    const CpuSpan cpu;
    const Clock::time_point t0 = Clock::now();
    fresh->Setup(args.seed);
    const double wall = SecondsSince(t0);
    const double cpu_s = cpu.Seconds();
    setup_wall_s.push_back(wall);
    setup_s.push_back(fresh->runs_in_workers() ? wall : cpu_s);
    workload = std::move(fresh);
  }
  const bool wall_clock = workload->runs_in_workers();
  workload->BuildOracle();
  if (args.corrupt_oracle) workload->CorruptOracle();

  // Peak RSS is read after a fixed op count, by which every input has run
  // at least twice: the latency log grows with each op, and the op count
  // with the program's speed, so a later reading would charge a faster
  // program more.
  const size_t rss_ops = std::max(sizing.min_ops, 2 * sizing.waves);
  double peak_rss_mb = 0;
  OpLoop loop;
  const std::string op_name = std::string("op.") + WorkloadName(args.kind);
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    const double elapsed = SecondsSince(start);
    if ((elapsed >= args.seconds && i >= sizing.min_ops) ||
        elapsed >= kMaxLoopSeconds) {
      break;
    }
    if (i == rss_ops) peak_rss_mb = PeakRssMb();
    TimedOp(*workload, i, nullptr, op_name.c_str(), &loop);
  }
  if (peak_rss_mb == 0) peak_rss_mb = PeakRssMb();
  std::string why;
  const bool finish_ok = workload->Finish(&why);
  if (!finish_ok) std::printf("check failed: %s\n", why.c_str());
  workload.reset();

  std::printf("stackbench %s seed=%llu trace=0\n", WorkloadName(args.kind),
              static_cast<unsigned long long>(args.seed));
  context.Print(args.seed, stdout);
  std::printf("clock: %s\n",
              wall_clock ? "wall (the ops run in worker processes)"
                         : "CPU time of the busiest thread (steal-free)");
  std::printf("setups (s):");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\nops: %zu attempted, %llu failed (op_ms_p90 has %zu samples "
              "beyond it)\n",
              loop.latency_s.size(),
              static_cast<unsigned long long>(loop.failed),
              loop.latency_s.size() / 10);
  if (!wall_clock) {
    std::printf("wall clock, not compared: setup_s %.4f, rounds_per_s %.6g, "
                "op_ms_p50 %.4f, op_ms_p90 %.4f\n",
                Median(setup_wall_s), loop.wall_rounds_per_s(),
                1e3 * Quantile(loop.wall_s, 0.5),
                1e3 * Quantile(loop.wall_s, 0.9));
  }
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"rounds_per_s", loop.rounds_per_s(), "1/s"},
      {"op_ms_p50", 1e3 * Quantile(loop.latency_s, 0.5), "ms"},
      {"op_ms_p90", 1e3 * Quantile(loop.latency_s, 0.9), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  PrintResult(stdout, loop.failed == 0 && finish_ok, loop.latency_s.size(),
              loop.failed, metrics);
  return 0;
}

int RunTraced(const Args& args, const Sizing& sizing, MachineContext& context) {
  SpanLog log;
  Ledger ledger(args.kind, args.seed, sizing, &log);
  // Worker processes are forked before this process starts any thread.
  ledger.RunForkingRows();

  std::unique_ptr<Workload> workload = MakeWorkload(args.kind, sizing);
  {
    ScopedSpan span(&log, std::string("setup.") + WorkloadName(args.kind), 0);
    workload->Setup(args.seed);
  }
  workload->BuildOracle();
  if (args.corrupt_oracle) workload->CorruptOracle();

  // Traced and untraced ops alternate, so machine drift hits both alike;
  // their rounds/s ratio is the tracing overhead.
  OpLoop traced;
  OpLoop untraced;
  const std::string op_name = std::string("op.") + WorkloadName(args.kind);
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    const double elapsed = SecondsSince(start);
    if ((elapsed >= args.seconds && i >= 2 * sizing.min_ops) ||
        elapsed >= kMaxLoopSeconds) {
      break;
    }
    if (i % 2 == 1) {
      TimedOp(*workload, i, &log, op_name.c_str(), &traced);
    } else {
      TimedOp(*workload, i, nullptr, op_name.c_str(), &untraced);
    }
  }
  std::string why;
  const bool finish_ok = workload->Finish(&why);
  if (!finish_ok) std::printf("check failed: %s\n", why.c_str());
  ledger.RecordOpLoop(traced.rounds_per_s(), untraced.rounds_per_s(),
                      workload->runner());
  workload.reset();

  ledger.RunInProcessRows();

  std::printf("stackbench %s seed=%llu trace=1\n", WorkloadName(args.kind),
              static_cast<unsigned long long>(args.seed));
  context.Print(args.seed, stdout);
  ledger.Print(stdout);
  if (!args.trace_out.empty()) {
    if (log.WriteChromeJson(args.trace_out)) {
      std::printf("trace: %zu spans written to %s\n", log.spans().size(),
                  args.trace_out.c_str());
    } else {
      std::printf("trace: could not write %s\n", args.trace_out.c_str());
    }
  }
  const uint64_t attempted =
      traced.latency_s.size() + untraced.latency_s.size();
  const uint64_t failed = traced.failed + untraced.failed;
  std::printf("ops: %llu attempted (%llu traced), %llu failed\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(traced.latency_s.size()),
              static_cast<unsigned long long>(failed));
  PrintResult(stdout, failed == 0 && finish_ok && ledger.ChecksPass(),
              attempted, failed, ledger.Metrics());
  return 0;
}

}  // namespace
}  // namespace stackbench

int main(int argc, char** argv) {
  using namespace stackbench;
  const Args args = ParseArgs(argc, argv);
  const Sizing sizing = DefaultSizing(args.kind, args.quick);
  MachineContext context;
  if (!context.comparable()) {
    // Thread and worker counts are fixed at 2; on fewer than 3 usable CPUs
    // they contend with the caller, so the figures must not be compared.
    context.Print(args.seed, stdout);
    std::fprintf(stderr,
                 "stackbench: fewer than 3 usable CPUs; no result\n");
    return 3;
  }
  try {
    return args.trace ? RunTraced(args, sizing, context)
                      : RunUntraced(args, sizing, context);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stackbench: %s\n", e.what());
    return 1;
  }
}
