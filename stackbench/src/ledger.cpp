// The traced run's per-layer ledger: the workload's own tenants driven
// through each layer on its own, each call into a layer's public functions
// timed from outside.
#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "bench.h"
#include "fleet/batch_engine.h"
#include "fleet/slo.h"
#include "obs/export_server.h"
#include "obs/flight_recorder.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "offline/optimal.h"
#include "parallel/thread_pool.h"
#include "reduce/distribute.h"
#include "reduce/online.h"
#include "reduce/pipeline.h"
#include "reduce/varbatch.h"
#include "sched/dlru_edf.h"
#include "sched/registry.h"
#include "snapshot/codec.h"

namespace stackbench {

namespace {

using rrs::fleet::FleetJob;
using rrs::fleet::FleetRunner;

// Minimum measured time per ledger row (after one warm-up pass).
constexpr double kRowSeconds = 0.4;
constexpr double kPolicySeconds = 0.15;
// Expansion budget for OPT on tenants too large to solve exactly: the
// solver returns a certified bracket instead, after a bounded search.
constexpr uint64_t kFleetOptStates = 20000;

// Runs `pass` (which returns the rounds it simulated) once to warm up, then
// until `min_seconds` of passes are measured; returns rounds per second.
template <typename Pass>
double MeasureRate(Pass&& pass, double min_seconds = kRowSeconds) {
  pass();
  uint64_t rounds = 0;
  double busy = 0;
  do {
    const Clock::time_point t0 = Clock::now();
    rounds += pass();
    busy += SecondsSince(t0);
  } while (busy < min_seconds);
  return static_cast<double>(rounds) / busy;
}

// Forwards every hook to a registry policy and times Reconfigure.
class TimedPolicy final : public rrs::SchedulerPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<rrs::SchedulerPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void Reset(const rrs::Instance& instance,
             const rrs::EngineOptions& options) override {
    inner_->Reset(instance, options);
  }
  void OnJobsDropped(rrs::Round k, rrs::ColorId c, uint64_t count,
                     std::span<const rrs::JobId> jobs) override {
    inner_->OnJobsDropped(k, c, count, jobs);
  }
  void AfterDropPhase(rrs::Round k) override { inner_->AfterDropPhase(k); }
  void OnArrivals(rrs::Round k, rrs::ColorId c, uint64_t count) override {
    inner_->OnArrivals(k, c, count);
  }
  void AfterArrivalPhase(rrs::Round k) override {
    inner_->AfterArrivalPhase(k);
  }
  void Reconfigure(rrs::Round k, int mini, rrs::ResourceView& view) override {
    const uint64_t t0 = rrs::obs::NowNs();
    inner_->Reconfigure(k, mini, view);
    reconfigure_ns_ += rrs::obs::NowNs() - t0;
  }
  void ExportMetrics(rrs::obs::Registry& registry) const override {
    inner_->ExportMetrics(registry);
  }
  void SaveState(rrs::snapshot::Writer& w) const override {
    inner_->SaveState(w);
  }
  void LoadState(rrs::snapshot::Reader& r) override { inner_->LoadState(r); }

  uint64_t reconfigure_ns() const { return reconfigure_ns_; }

 private:
  std::unique_ptr<rrs::SchedulerPolicy> inner_;
  uint64_t reconfigure_ns_ = 0;
};

// The obs plane as production attaches it: scope, SLO tracker, flight
// recorder and a started export server.
struct ObsPlane {
  ObsPlane() {
    rrs::obs::ExportServer::Options options;
    options.scope = &scope;
    server = std::make_unique<rrs::obs::ExportServer>(std::move(options));
    rrs::fleet::SloTracker* tracker = &slo;
    server->AddMetricsSection(
        [tracker] { return tracker->RenderPrometheus(); });
    server->Start();
  }

  rrs::obs::Scope scope;
  rrs::fleet::SloTracker slo;
  rrs::obs::FlightRecorder recorder;
  std::unique_ptr<rrs::obs::ExportServer> server;
};

}  // namespace

struct Ledger::Impl {
  struct Row {
    std::string name;
    std::string what;
    double rounds_per_s = 0;
    std::string base;  // the row this one is a factor over
  };

  WorkloadKind kind;
  SpanLog* log = nullptr;
  std::vector<Tenant> sample;
  std::vector<Row> rows;
  std::vector<Metric> metrics;
  double replay_serial_s = 0;  // scalar no-pool fleet, replay tenants only
  double traced_rps = 0;
  double untraced_rps = 0;
  bool have_op_stats = false;
  rrs::fleet::FleetStats op_stats;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void AddRow(std::string name, std::string what, double rps,
              std::string base) {
    rows.push_back({std::move(name), std::move(what), rps, std::move(base)});
  }
  // The metric's value; NaN when it was never set, so a missing metric
  // fails every check on it.
  double Value(const std::string& name) const {
    for (const Metric& m : metrics) {
      if (m.name == name) return m.value;
    }
    return std::numeric_limits<double>::quiet_NaN();
  }
  double RowRate(const std::string& name) const {
    for (const Row& row : rows) {
      if (row.name == name) return row.rounds_per_s;
    }
    return 0;
  }

  // Materialized instances for the rows that need a whole job list: the
  // tenants' own instance when they have one, else Materialize of a clone.
  std::vector<std::pair<const Tenant*, rrs::Instance>> Instances(
      size_t count, bool pipeline_only) const {
    std::vector<std::pair<const Tenant*, rrs::Instance>> out;
    for (const Tenant& tenant : sample) {
      if (out.size() >= count) break;
      if (pipeline_only && !tenant.pipeline) continue;
      if (tenant.instance.num_colors() > 0) {
        out.emplace_back(&tenant, tenant.instance);
      } else {
        std::unique_ptr<rrs::workload::ArrivalSource> source =
            tenant.proto->Clone();
        out.emplace_back(&tenant, rrs::workload::Materialize(*source));
      }
    }
    return out;
  }

  // ---- Forking rows --------------------------------------------------------

  void DistRows() {
    // Spec-fed on both sides: the in-process baseline instantiates each
    // tenant's source at admission, as a dist worker does.
    const std::vector<FleetJob> jobs = DistJobs(sample);
    {
      rrs::fleet::FleetOptions options = FleetOptionsFor(nullptr);
      options.batch_width = 0;
      FleetRunner runner(options);
      runner.RunAll(jobs);
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(log, "fleet.RunAll.scalar", 0);
        runner.RunAll(jobs);
      }
      replay_serial_s = SecondsSince(t0);
    }
    std::vector<DistLifecycle> one, two;
    for (uint64_t rep = 0; rep < 5; ++rep) {
      one.push_back(RunDistLifecycle(1, jobs, rep, log));
      two.push_back(RunDistLifecycle(kDistWorkers, jobs, rep, log));
    }
    auto median = [](const std::vector<DistLifecycle>& runs, auto field) {
      std::vector<double> values;
      for (const DistLifecycle& run : runs) values.push_back(field(run));
      return Median(values);
    };
    using L = DistLifecycle;
    const double run_1w = median(one, [](const L& l) { return l.run_s; });
    const double run_2w = median(two, [](const L& l) { return l.run_s; });
    const DistLifecycle& last = two.back();
    Set("dist.start_ms",
        1e3 * median(two, [](const L& l) { return l.start_s; }), "ms");
    Set("dist.addjobs_ms",
        1e3 * median(two, [](const L& l) { return l.addjobs_s; }), "ms");
    Set("dist.run_ms", 1e3 * run_2w, "ms");
    Set("dist.shutdown_ms",
        1e3 * median(two, [](const L& l) { return l.shutdown_s; }), "ms");
    Set("dist.tick_ms",
        last.stats.ticks > 0 ? 1e3 * run_2w / last.stats.ticks : 0, "ms");
    Set("dist.ticks", static_cast<double>(last.stats.ticks), "count");
    Set("dist.checkpoint_words",
        static_cast<double>(last.stats.checkpoint_words), "count");
    Set("dist.migrations", static_cast<double>(last.stats.migrations),
        "count");
    Set("dist.speedup_2w", run_2w > 0 ? run_1w / run_2w : 0, "x");
    Set("dist.wire_factor", replay_serial_s > 0 ? run_1w / replay_serial_s : 0,
        "x");
    const double rounds = static_cast<double>(SumRounds(last.results));
    AddRow("dist.2w", "DistController Run, 2 worker processes",
           run_2w > 0 ? rounds / run_2w : 0, "dist.1w");
    AddRow("dist.1w", "DistController Run, 1 worker process",
           run_1w > 0 ? rounds / run_1w : 0, "fleet.scalar");
    AddRow("fleet.scalar", "FleetRunner, scalar sessions, no pool",
           replay_serial_s > 0 ? rounds / replay_serial_s : 0, "core.engine");
  }

  // ---- In-process rows -----------------------------------------------------

  void WorkloadRow() {
    std::vector<std::unique_ptr<rrs::workload::ArrivalSource>> sources;
    const double rate = MeasureRate([&] {
      uint64_t rounds = 0;
      for (const Tenant& tenant : sample) {
        ScopedSpan span(log, "workload.Clone+NextRound", 0);
        std::unique_ptr<rrs::workload::ArrivalSource> source =
            tenant.proto->Clone();
        while (source->cursor() < source->num_request_rounds()) {
          source->NextRound();
        }
        rounds += static_cast<uint64_t>(source->num_request_rounds());
      }
      return rounds;
    });
    Set("workload.gen_rounds_per_s", rate, "1/s");
    AddRow("workload.gen", "Clone + NextRound, no engine", rate, "");
  }

  void CoreRow() {
    rrs::Engine engine;
    rrs::DlruEdfPolicy policy;
    uint64_t rebind_ns = 0;
    uint64_t rebinds = 0;
    const double rate = MeasureRate([&] {
      uint64_t rounds = 0;
      rrs::RunResult result;
      for (const Tenant& tenant : sample) {
        std::unique_ptr<rrs::workload::ArrivalSource> source =
            tenant.proto->Clone();
        ScopedSpan span(log, "core.Engine", 0);
        const uint64_t t0 = rrs::obs::NowNs();
        engine.Reset(*source, tenant.options);
        engine.BeginRun(policy);
        rebind_ns += rrs::obs::NowNs() - t0;
        ++rebinds;
        while (engine.StepRounds(kRoundsPerTick)) {
        }
        engine.FinishRun(result);
        rounds += static_cast<uint64_t>(result.rounds_simulated);
      }
      return rounds;
    });
    Set("core.engine_rounds_per_s", rate, "1/s");
    Set("core.rebind_us", rebinds > 0 ? 1e-3 * rebind_ns / rebinds : 0, "us");
    AddRow("core.engine", "one reused Engine session, dlru-edf", rate,
           "workload.gen");
  }

  void SchedRows() {
    const auto instances =
        Instances(kind == WorkloadKind::kRatioAudit ? 64 : 32, false);
    rrs::Engine engine;
    for (const std::string& name : rrs::PolicyNames()) {
      TimedPolicy policy(rrs::MakePolicy(name));
      uint64_t run_ns = 0;
      uint64_t rounds = 0;
      const std::string span_name = "sched.replay." + name;
      MeasureRate(
          [&] {
            uint64_t pass_rounds = 0;
            for (const auto& [tenant, instance] : instances) {
              ScopedSpan span(log, span_name, 0);
              engine.Reset(instance, tenant->options);
              const uint64_t t0 = rrs::obs::NowNs();
              const rrs::RunResult result = engine.Run(policy);
              run_ns += rrs::obs::NowNs() - t0;
              pass_rounds += static_cast<uint64_t>(result.rounds_simulated);
            }
            rounds += pass_rounds;
            return pass_rounds;
          },
          kPolicySeconds);
      Set("sched." + name + ".us_per_round",
          rounds > 0 ? 1e-3 * policy.reconfigure_ns() / rounds : 0, "us");
      if (name == "dlru-edf") {
        Set("sched.reconfigure_share",
            run_ns > 0 ? static_cast<double>(policy.reconfigure_ns()) / run_ns
                       : 0,
            "ratio");
      }
    }
  }

  void SnapshotRow() {
    rrs::Engine cut_engine;
    rrs::Engine restore_engine;
    rrs::DlruEdfPolicy cut_policy;
    rrs::DlruEdfPolicy restore_policy;
    rrs::snapshot::Writer engine_words;
    rrs::snapshot::Writer source_words;
    uint64_t save_ns = 0, restore_ns = 0, words = 0, cuts = 0;
    rrs::RunResult result;
    for (const Tenant& tenant : sample) {
      std::unique_ptr<rrs::workload::ArrivalSource> cut_source =
          tenant.proto->Clone();
      std::unique_ptr<rrs::workload::ArrivalSource> restore_source =
          tenant.proto->Clone();
      cut_engine.Reset(*cut_source, tenant.options);
      cut_engine.BeginRun(cut_policy);
      cut_engine.StepRounds(std::max<rrs::Round>(1, cut_source->horizon() / 2));
      engine_words.Clear();
      source_words.Clear();
      uint64_t t0 = rrs::obs::NowNs();
      {
        ScopedSpan span(log, "snapshot.SnapshotRun", 0);
        cut_engine.SnapshotRun(engine_words);
        cut_source->SaveState(source_words);
      }
      save_ns += rrs::obs::NowNs() - t0;
      cut_engine.AbortRun();
      restore_engine.Reset(*restore_source, tenant.options);
      rrs::snapshot::Reader engine_reader(engine_words.words());
      rrs::snapshot::Reader source_reader(source_words.words());
      t0 = rrs::obs::NowNs();
      {
        ScopedSpan span(log, "snapshot.RestoreRun", 0);
        restore_engine.RestoreRun(restore_policy, engine_reader,
                                  &source_reader);
      }
      restore_ns += rrs::obs::NowNs() - t0;
      while (restore_engine.StepRounds(kRoundsPerTick)) {
      }
      restore_engine.FinishRun(result);
      words += engine_words.words().size() + source_words.words().size();
      ++cuts;
    }
    Set("snapshot.save_us", cuts > 0 ? 1e-3 * save_ns / cuts : 0, "us");
    Set("snapshot.restore_us", cuts > 0 ? 1e-3 * restore_ns / cuts : 0, "us");
    Set("snapshot.words", cuts > 0 ? static_cast<double>(words) / cuts : 0,
        "count");
  }

  void ReduceRows() {
    // Pipeline tenants where the workload has them, else its first tenants.
    auto instances = Instances(64, kind == WorkloadKind::kFleetChurn);
    if (kind != WorkloadKind::kRatioAudit && instances.size() > 32) {
      instances.resize(32);
    }
    rrs::reduce::PipelineSession session;
    uint64_t pipeline_ns = 0;
    for (const auto& [tenant, instance] : instances) {
      ScopedSpan span(log, "reduce.PipelineSession.SolveOnline", 0);
      const uint64_t t0 = rrs::obs::NowNs();
      session.SolveOnline(instance, tenant->options);
      pipeline_ns += rrs::obs::NowNs() - t0;
    }
    uint64_t step_ns = 0, steps = 0;
    for (const auto& [tenant, instance] : instances) {
      const std::vector<uint32_t> budgets =
          rrs::reduce::DistributeInstance(
              rrs::reduce::VarBatchInstance(instance).transformed)
              .subcolors_per_color;
      std::vector<rrs::reduce::OnlineSolver::ColorSpec> colors;
      for (rrs::ColorId c = 0; c < instance.num_colors(); ++c) {
        colors.push_back({instance.delay_bound(c), budgets[c]});
      }
      rrs::reduce::OnlineSolver solver(colors, tenant->options);
      std::vector<std::vector<std::pair<rrs::ColorId, uint64_t>>> arrivals;
      std::unique_ptr<rrs::workload::ArrivalSource> source =
          tenant->proto->Clone();
      while (source->cursor() < source->num_request_rounds()) {
        const auto runs = source->NextRound();
        arrivals.emplace_back(runs.begin(), runs.end());
      }
      ScopedSpan span(log, "reduce.OnlineSolver.Step", 0);
      const uint64_t t0 = rrs::obs::NowNs();
      for (const auto& round : arrivals) solver.Step(round);
      step_ns += rrs::obs::NowNs() - t0;
      steps += arrivals.size();
    }
    Set("reduce.pipeline_us",
        instances.empty() ? 0 : 1e-3 * pipeline_ns / instances.size(), "us");
    Set("reduce.online_step_us", steps > 0 ? 1e-3 * step_ns / steps : 0, "us");
  }

  void OfflineRow() {
    const bool audit = kind == WorkloadKind::kRatioAudit;
    const auto instances = Instances(audit ? 64 : 4, false);
    rrs::offline::OptimalOptions options;
    options.num_resources = kAuditOptResources;
    if (!audit) options.max_states = kFleetOptStates;
    double solve_s = 0;
    uint64_t expanded = 0, pruned_bound = 0, pruned_dominated = 0, width = 0;
    for (const auto& [tenant, instance] : instances) {
      options.cost_model = tenant->options.cost_model;
      ScopedSpan span(log, "offline.SolveOptimal", 0);
      const Clock::time_point t0 = Clock::now();
      const rrs::offline::OptimalResult result =
          rrs::offline::SolveOptimal(instance, options);
      solve_s += SecondsSince(t0);
      expanded += result.states_expanded;
      pruned_bound += result.pruned_bound;
      pruned_dominated += result.pruned_dominated;
      width = std::max(width, result.max_layer_width);
    }
    Set("offline.solve_ms",
        instances.empty() ? 0 : 1e3 * solve_s / instances.size(), "ms");
    Set("offline.states_per_s", solve_s > 0 ? expanded / solve_s : 0, "1/s");
    Set("offline.states_expanded", static_cast<double>(expanded), "count");
    Set("offline.pruned_bound", static_cast<double>(pruned_bound), "count");
    Set("offline.pruned_dominated", static_cast<double>(pruned_dominated),
        "count");
    Set("offline.max_layer_width", static_cast<double>(width), "count");
  }

  void FleetRows() {
    const std::vector<FleetJob> jobs = FleetJobs(sample);
    auto run_all = [&](FleetRunner& runner, const char* span_name) {
      ScopedSpan span(log, span_name, 0);
      return SumRounds(runner.RunAll(jobs));
    };

    // Session pool: scalar sessions, no pool.
    rrs::fleet::FleetOptions serial_options = FleetOptionsFor(nullptr);
    serial_options.batch_width = 0;
    FleetRunner serial(serial_options);
    const double serial_rate =
        MeasureRate([&] { return run_all(serial, "fleet.RunAll.serial"); });
    const rrs::fleet::FleetStats before = serial.stats();
    run_all(serial, "fleet.RunAll.serial");
    const rrs::fleet::FleetStats after = serial.stats();
    Set("fleet.serial_rounds_per_s", serial_rate, "1/s");
    Set("fleet.recycle_ratio",
        after.sessions_created + after.sessions_recycled > 0
            ? static_cast<double>(after.sessions_recycled) /
                  (after.sessions_created + after.sessions_recycled)
            : 0,
        "ratio");
    Set("fleet.ticks", static_cast<double>(after.ticks - before.ticks),
        "count");
    AddRow("fleet.serial", "FleetRunner, scalar sessions, no pool, all tenants",
           serial_rate, "core.engine");

    LanesRow();

    // Batch lanes through the runner, then on the thread pool.
    FleetRunner one(FleetOptionsFor(nullptr));
    const double one_rate =
        MeasureRate([&] { return run_all(one, "fleet.RunAll.lanes"); });
    AddRow("fleet.runner_1t", "FleetRunner, batch lanes, no pool", one_rate,
           "fleet.serial");
    rrs::ThreadPool pool(kPoolThreads);
    FleetRunner two(FleetOptionsFor(&pool));
    const double two_rate =
        MeasureRate([&] { return run_all(two, "parallel.RunAll.2t"); });
    AddRow("parallel.2t", "FleetRunner, batch lanes, 2 pool threads",
           two_rate, "fleet.runner_1t");
    Set("parallel.speedup_2t", one_rate > 0 ? two_rate / one_rate : 0, "x");

    const rrs::fleet::FleetStats lanes =
        have_op_stats ? op_stats : one.stats();
    Set("fleet.lane_occupancy",
        lanes.slab_rounds_stepped > 0
            ? static_cast<double>(lanes.lane_rounds_stepped) /
                  (static_cast<double>(lanes.slab_rounds_stepped) * kBatchWidth)
            : 0,
        "ratio");
    Set("fleet.batched_share",
        lanes.sessions_completed > 0
            ? static_cast<double>(lanes.batched_sessions) /
                  lanes.sessions_completed
            : 0,
        "ratio");

    // Obs plane: paired passes of the 2-thread runner without and with it.
    ObsPlane plane;
    rrs::fleet::FleetOptions plane_options = FleetOptionsFor(&pool);
    plane_options.scope = &plane.scope;
    plane_options.slo = &plane.slo;
    plane_options.recorder = &plane.recorder;
    FleetRunner observed(plane_options);
    observed.RunAll(jobs);
    std::vector<double> bare_rates, plane_rates;
    double busy = 0;
    while (busy < 2 * kRowSeconds || bare_rates.size() < 3) {
      for (FleetRunner* runner : {&two, &observed}) {
        const Clock::time_point t0 = Clock::now();
        const uint64_t rounds = run_all(*runner, "obs.RunAll");
        const double dt = SecondsSince(t0);
        busy += dt;
        (runner == &two ? bare_rates : plane_rates).push_back(rounds / dt);
      }
    }
    Set("obs.plane_overhead", 1 - Median(plane_rates) / Median(bare_rates),
        "ratio");
  }

  // BatchEngine driven directly: the tenants packed into slabs of
  // kBatchWidth same-shape lanes, as full as the shapes allow.
  void LanesRow() {
    struct Slab {
      explicit Slab() : engine(kBatchWidth) {
        for (uint32_t lane = 0; lane < kBatchWidth; ++lane) {
          policies.push_back(std::make_unique<rrs::DlruEdfPolicy>());
        }
      }
      rrs::fleet::BatchEngine engine;
      std::vector<std::unique_ptr<rrs::DlruEdfPolicy>> policies;
      uint32_t lanes = 0;
    };
    std::vector<std::unique_ptr<Slab>> slabs;
    std::vector<const Tenant*> tenants;
    for (const Tenant& tenant : sample) {
      if (!tenant.pipeline) tenants.push_back(&tenant);
    }
    std::vector<std::unique_ptr<rrs::workload::ArrivalSource>> sources(
        tenants.size());
    const double rate = MeasureRate([&] {
      for (size_t t = 0; t < tenants.size(); ++t) {
        sources[t] = tenants[t]->proto->Clone();
      }
      ScopedSpan span(log, "fleet.BatchEngine", 0);
      size_t used = 0;
      for (size_t t = 0; t < tenants.size(); ++t) {
        const rrs::Instance& shape = sources[t]->shape();
        Slab* slab = nullptr;
        for (size_t s = 0; s < used; ++s) {
          if (slabs[s]->lanes < kBatchWidth &&
              slabs[s]->engine.LaneCompatible(shape, tenants[t]->options)) {
            slab = slabs[s].get();
            break;
          }
        }
        if (slab == nullptr) {
          if (used == slabs.size()) slabs.push_back(std::make_unique<Slab>());
          slab = slabs[used++].get();
        }
        slab->engine.OpenLane(slab->lanes, *sources[t], tenants[t]->options,
                              *slab->policies[slab->lanes]);
        ++slab->lanes;
      }
      uint64_t rounds = 0;
      rrs::RunResult result;
      for (size_t s = 0; s < used; ++s) {
        Slab& slab = *slabs[s];
        while (slab.engine.StepRounds(kRoundsPerTick)) {
        }
        for (uint32_t lane = 0; lane < slab.lanes; ++lane) {
          slab.engine.FinishLane(lane, result);
          rounds += static_cast<uint64_t>(result.rounds_simulated);
        }
        slab.lanes = 0;
      }
      return rounds;
    });
    Set("fleet.lanes_rounds_per_s", rate, "1/s");
    AddRow("fleet.lanes", "BatchEngine driven directly, slabs of 64", rate,
           "core.engine");
  }
};

Ledger::Ledger(WorkloadKind kind, uint64_t seed, const Sizing& sizing,
               SpanLog* log)
    : impl_(std::make_unique<Impl>()) {
  impl_->kind = kind;
  impl_->log = log;
  const size_t count = kind == WorkloadKind::kRatioAudit
                           ? std::min<size_t>(256, sizing.waves)
                           : sizing.wave_tenants;
  impl_->sample = BuildWave(kind, seed, 0, count);
}

Ledger::~Ledger() = default;

void Ledger::RunForkingRows() { impl_->DistRows(); }

void Ledger::RunInProcessRows() {
  impl_->WorkloadRow();
  impl_->CoreRow();
  impl_->SchedRows();
  impl_->SnapshotRow();
  impl_->ReduceRows();
  impl_->OfflineRow();
  impl_->FleetRows();
}

void Ledger::RecordOpLoop(double traced_rps, double untraced_rps,
                          const rrs::fleet::FleetRunner* runner) {
  impl_->traced_rps = traced_rps;
  impl_->untraced_rps = untraced_rps;
  if (runner != nullptr) {
    impl_->have_op_stats = true;
    impl_->op_stats = runner->stats();
  }
}

std::vector<Metric> Ledger::Metrics() const {
  std::vector<Metric> metrics = impl_->metrics;
  metrics.push_back({"obs.trace_overhead",
                     impl_->untraced_rps > 0
                         ? 1 - impl_->traced_rps / impl_->untraced_rps
                         : 0,
                     "ratio"});
  std::sort(metrics.begin(), metrics.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  return metrics;
}

void Ledger::Print(FILE* out) const {
  std::fprintf(out, "ledger: rounds/s per layer row, factor = row / base\n");
  std::fprintf(out, "  %-16s %14s  %-16s %8s  %s\n", "row", "rounds/s", "base",
               "factor", "what");
  static const char* kOrder[] = {"dist.2w",      "dist.1w",
                                 "parallel.2t",  "fleet.runner_1t",
                                 "fleet.lanes",  "fleet.serial",
                                 "fleet.scalar", "core.engine",
                                 "workload.gen"};
  for (const char* name : kOrder) {
    for (const Impl::Row& row : impl_->rows) {
      if (row.name != name) continue;
      const double base =
          row.base.empty() ? 0 : impl_->RowRate(row.base);
      if (base > 0) {
        std::fprintf(out, "  %-16s %14.0f  %-16s %8.3f  %s\n",
                     row.name.c_str(), row.rounds_per_s, row.base.c_str(),
                     row.rounds_per_s / base, row.what.c_str());
      } else {
        std::fprintf(out, "  %-16s %14.0f  %-16s %8s  %s\n", row.name.c_str(),
                     row.rounds_per_s, "", "", row.what.c_str());
      }
    }
  }
  const std::map<std::string, double> self = impl_->log->SelfSeconds();
  double total = 0;
  for (const auto& [layer, seconds] : self) total += seconds;
  std::fprintf(out, "self time per layer (all traced spans):\n");
  for (const auto& [layer, seconds] : self) {
    std::fprintf(out, "  %-10s %10.4f s  %5.1f%%\n", layer.c_str(), seconds,
                 total > 0 ? 100 * seconds / total : 0);
  }
  std::fprintf(out,
               "obs.trace_overhead: traced %.0f vs untraced %.0f rounds/s\n",
               impl_->traced_rps, impl_->untraced_rps);
  if (impl_->kind == WorkloadKind::kFleetLanes) {
    std::fprintf(out, "check fleet.lane_occupancy %.3f >= 0.9: %s\n",
                 impl_->Value("fleet.lane_occupancy"),
                 ChecksPass() ? "ok" : "NOT MET");
  } else if (impl_->kind == WorkloadKind::kFleetChurn) {
    std::fprintf(out, "check fleet.lane_occupancy %.3f <= 0.25: %s\n",
                 impl_->Value("fleet.lane_occupancy"),
                 ChecksPass() ? "ok" : "NOT MET");
  }
}

bool Ledger::ChecksPass() const {
  const double occupancy = impl_->Value("fleet.lane_occupancy");
  switch (impl_->kind) {
    case WorkloadKind::kFleetLanes:
      return occupancy >= 0.9;
    case WorkloadKind::kFleetChurn:
      return occupancy <= 0.25;
    default:
      return true;
  }
}

}  // namespace stackbench
