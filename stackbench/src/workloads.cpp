// The four workloads' set-up, ops and oracle checks.
#include <algorithm>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <utility>

#include "bench.h"
#include "fleet/slo.h"
#include "obs/export_server.h"
#include "obs/flight_recorder.h"
#include "obs/scope.h"
#include "offline/lower_bound.h"
#include "offline/optimal.h"
#include "parallel/thread_pool.h"
#include "reduce/distribute.h"
#include "reduce/online.h"
#include "reduce/pipeline.h"
#include "reduce/varbatch.h"
#include "sched/registry.h"

namespace stackbench {

using rrs::fleet::FleetJob;

std::vector<FleetJob> FleetJobs(const std::vector<Tenant>& tenants) {
  std::vector<FleetJob> jobs;
  jobs.reserve(tenants.size());
  for (const Tenant& tenant : tenants) {
    FleetJob job;
    job.options = tenant.options;
    if (tenant.pipeline) {
      job.instance = &tenant.instance;
      job.kind = FleetJob::Kind::kPipeline;
    } else {
      const rrs::workload::ArrivalSource* proto = tenant.proto.get();
      job.make_source = [proto] { return proto->Clone(); };
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<FleetJob> DistJobs(const std::vector<Tenant>& tenants) {
  std::vector<FleetJob> jobs;
  for (const Tenant& tenant : tenants) {
    if (tenant.pipeline) continue;
    FleetJob job;
    job.options = tenant.options;
    job.source_spec = &tenant.spec;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

rrs::fleet::FleetOptions FleetOptionsFor(rrs::ThreadPool* pool) {
  rrs::fleet::FleetOptions options;
  options.pool = pool;
  options.rounds_per_tick = kRoundsPerTick;
  options.max_live_sessions = kLiveCap;
  options.batch_width = kBatchWidth;
  return options;
}

namespace {

void ScheduleMigrations(rrs::fleet::dist::DistController& controller,
                        size_t tenants, uint64_t op) {
  if (tenants == 0) return;
  for (uint64_t m = 0; m < 4; ++m) {
    controller.ScheduleMigration(1 + m / 2, (op * 13 + m * 37) % tenants,
                                 m % controller.num_workers());
  }
}

}  // namespace

DistLifecycle RunDistLifecycle(size_t workers,
                               const std::vector<FleetJob>& jobs, uint64_t op,
                               SpanLog* log) {
  rrs::fleet::dist::DistOptions options;
  options.num_workers = workers;
  options.worker.rounds_per_tick = kDistRoundsPerTick;
  options.worker.checkpoint_interval_ticks = 1;
  options.worker.collect_results = true;
  options.worker.report_slo = true;
  options.track_slo = true;
  rrs::fleet::dist::DistController controller(std::move(options));
  DistLifecycle out;
  Clock::time_point t0 = Clock::now();
  bool started = false;
  {
    ScopedSpan span(log, "dist.Start", op);
    started = controller.Start();
  }
  out.start_s = SecondsSince(t0);
  if (!started) return out;
  t0 = Clock::now();
  {
    ScopedSpan span(log, "dist.AddJobs", op);
    controller.AddJobs(jobs);
  }
  out.addjobs_s = SecondsSince(t0);
  ScheduleMigrations(controller, jobs.size(), op);
  t0 = Clock::now();
  {
    ScopedSpan span(log, "dist.Run", op);
    out.results = controller.Run();
  }
  out.run_s = SecondsSince(t0);
  out.stats = controller.stats();
  t0 = Clock::now();
  {
    ScopedSpan span(log, "dist.Shutdown", op);
    controller.Shutdown();
  }
  out.shutdown_s = SecondsSince(t0);
  return out;
}

uint64_t SumRounds(const std::vector<rrs::RunResult>& results) {
  uint64_t rounds = 0;
  for (const rrs::RunResult& r : results) {
    rounds += static_cast<uint64_t>(r.rounds_simulated);
  }
  return rounds;
}

namespace {

bool KeysMatch(const std::vector<rrs::RunResult>& results,
               const std::vector<ResultKey>& oracle) {
  if (results.size() != oracle.size()) return false;
  for (size_t t = 0; t < results.size(); ++t) {
    if (!(KeyOf(results[t]) == oracle[t])) return false;
  }
  return true;
}

// Value of an unlabelled series in a Prometheus exposition; -1 if absent.
double ScrapedValue(const std::string& body, const std::string& series) {
  size_t pos = 0;
  while ((pos = body.find(series + " ", pos)) != std::string::npos) {
    if (pos == 0 || body[pos - 1] == '\n') {
      return std::strtod(body.c_str() + pos + series.size() + 1, nullptr);
    }
    pos += series.size();
  }
  return -1;
}

// fleet-lanes and fleet-churn: one op is FleetRunner::RunAll over a wave,
// with the obs plane attached as in production.
class FleetWorkload final : public Workload {
 public:
  FleetWorkload(WorkloadKind kind, const Sizing& sizing)
      : kind_(kind), sizing_(sizing) {}

  void Setup(uint64_t seed) override {
    for (size_t w = 0; w < sizing_.waves; ++w) {
      waves_.push_back(BuildWave(kind_, seed, w, sizing_.wave_tenants));
      jobs_.push_back(FleetJobs(waves_.back()));
    }
    pool_ = std::make_unique<rrs::ThreadPool>(kPoolThreads);
    rrs::fleet::FleetOptions options = FleetOptionsFor(pool_.get());
    options.scope = &scope_;
    options.slo = &slo_;
    options.recorder = &recorder_;
    runner_ = std::make_unique<rrs::fleet::FleetRunner>(std::move(options));
    rrs::obs::ExportServer::Options server;
    server.scope = &scope_;
    server_ = std::make_unique<rrs::obs::ExportServer>(std::move(server));
    rrs::fleet::SloTracker* slo = &slo_;
    server_->AddMetricsSection([slo] { return slo->RenderPrometheus(); });
    std::string error;
    if (!server_->Start(&error)) {
      throw std::runtime_error("export server: " + error);
    }
    results_ = runner_->RunAll(jobs_[0]);  // warm-up op
  }

  void BuildOracle() override {
    oracle_.resize(waves_.size());
    for (size_t w = 0; w < waves_.size(); ++w) {
      for (const Tenant& tenant : waves_[w]) {
        oracle_[w].push_back(OracleKey(tenant));
      }
    }
  }

  void CorruptOracle() override { ++oracle_[0][0].drops; }

  uint64_t RunOp(size_t i, SpanLog* log) override {
    ScopedSpan span(log, "fleet.RunAll", i);
    results_ = runner_->RunAll(jobs_[i % jobs_.size()]);
    return SumRounds(results_);
  }

  bool CheckOp(size_t i) override {
    return KeysMatch(results_, oracle_[i % oracle_.size()]);
  }

  // One scrape of the export server after the timed ops: its fleet counters
  // must equal the runner's FleetStats.
  bool Finish(std::string* why) override {
    std::string error;
    const std::string body =
        rrs::obs::HttpGet("127.0.0.1", server_->port(), "/metrics", &error);
    if (body.empty()) {
      *why = "metrics scrape failed: " + error;
      return false;
    }
    const rrs::fleet::FleetStats stats = runner_->stats();
    const std::pair<const char*, uint64_t> expected[] = {
        {"rrs_fleet_sessions_completed", stats.sessions_completed},
        {"rrs_fleet_rounds_stepped", stats.rounds_stepped},
        {"rrs_fleet_ticks", stats.ticks},
        {"rrs_fleet_batch_sessions", stats.batched_sessions},
        {"rrs_fleet_batch_fallback", stats.fallback_sessions},
        {"rrs_fleet_batch_lane_rounds", stats.lane_rounds_stepped},
        {"rrs_fleet_batch_slab_rounds", stats.slab_rounds_stepped},
    };
    for (const auto& [series, value] : expected) {
      const double scraped = ScrapedValue(body, series);
      if (scraped != static_cast<double>(value)) {
        *why = std::string("scraped ") + series + " = " +
               std::to_string(scraped) + ", FleetStats says " +
               std::to_string(value);
        return false;
      }
    }
    return true;
  }

  const rrs::fleet::FleetRunner* runner() const override {
    return runner_.get();
  }

 private:
  const WorkloadKind kind_;
  const Sizing sizing_;
  std::vector<std::vector<Tenant>> waves_;
  std::vector<std::vector<FleetJob>> jobs_;
  std::vector<std::vector<ResultKey>> oracle_;
  rrs::obs::Scope scope_;
  rrs::fleet::SloTracker slo_;
  rrs::obs::FlightRecorder recorder_;
  std::unique_ptr<rrs::ThreadPool> pool_;
  std::unique_ptr<rrs::fleet::FleetRunner> runner_;
  // Declared last: stopped (joined) before what its handlers read.
  std::unique_ptr<rrs::obs::ExportServer> server_;
  std::vector<rrs::RunResult> results_;
};

// dist-ckpt: one op is a whole DistController lifecycle over a wave of
// spec-fed tenants on kDistWorkers worker processes.
class DistWorkload final : public Workload {
 public:
  explicit DistWorkload(const Sizing& sizing) : sizing_(sizing) {}

  void Setup(uint64_t seed) override {
    for (size_t w = 0; w < sizing_.waves; ++w) {
      waves_.push_back(
          BuildWave(WorkloadKind::kDistCkpt, seed, w, sizing_.wave_tenants));
      jobs_.push_back(DistJobs(waves_.back()));
    }
    RunOp(0, nullptr);  // warm-up op
  }

  void BuildOracle() override {
    oracle_.resize(waves_.size());
    for (size_t w = 0; w < waves_.size(); ++w) {
      for (const Tenant& tenant : waves_[w]) {
        oracle_[w].push_back(OracleKey(tenant));
      }
    }
  }

  void CorruptOracle() override { ++oracle_[0][0].drops; }

  uint64_t RunOp(size_t i, SpanLog* log) override {
    // A lifecycle whose Start fails has no results, so its check fails.
    results_ =
        RunDistLifecycle(kDistWorkers, jobs_[i % jobs_.size()], i, log).results;
    return SumRounds(results_);
  }

  bool CheckOp(size_t i) override {
    return KeysMatch(results_, oracle_[i % oracle_.size()]);
  }

  bool runs_in_workers() const override { return true; }

 private:
  const Sizing sizing_;
  std::vector<std::vector<Tenant>> waves_;
  std::vector<std::vector<FleetJob>> jobs_;
  std::vector<std::vector<ResultKey>> oracle_;
  std::vector<rrs::RunResult> results_;
};

// ratio-audit: one op audits one corpus instance — the OnlineSolver fed
// round by round, every registry policy replayed on a reused Engine, and
// OPT certified at fewer resources.
class RatioWorkload final : public Workload {
 public:
  explicit RatioWorkload(const Sizing& sizing) : sizing_(sizing) {}

  void Setup(uint64_t seed) override {
    corpus_ = BuildWave(WorkloadKind::kRatioAudit, seed, 0, sizing_.waves);
    audits_.resize(corpus_.size());
    for (size_t k = 0; k < corpus_.size(); ++k) {
      const Tenant& tenant = corpus_[k];
      Audit& audit = audits_[k];
      std::unique_ptr<rrs::workload::ArrivalSource> source =
          tenant.proto->Clone();
      while (source->cursor() < source->num_request_rounds()) {
        const auto runs = source->NextRound();
        audit.arrivals.emplace_back(runs.begin(), runs.end());
      }
      // Subcolor budgets as SolveOnline's Distribute step numbers them.
      const std::vector<uint32_t> budgets =
          rrs::reduce::DistributeInstance(
              rrs::reduce::VarBatchInstance(tenant.instance).transformed)
              .subcolors_per_color;
      std::unique_ptr<rrs::reduce::OnlineSolver>& solver = solvers_[budgets];
      if (solver == nullptr) {
        std::vector<rrs::reduce::OnlineSolver::ColorSpec> colors;
        for (rrs::ColorId c = 0; c < tenant.instance.num_colors(); ++c) {
          colors.push_back({tenant.instance.delay_bound(c), budgets[c]});
        }
        solver = std::make_unique<rrs::reduce::OnlineSolver>(colors,
                                                             tenant.options);
      }
      audit.solver = solver.get();
    }
    for (const std::string& name : rrs::PolicyNames()) {
      policies_.push_back(rrs::MakePolicy(name));
      span_names_.push_back("core.replay." + name);
      if (name == "dlru-edf") rounds_policy_ = policies_.size() - 1;
    }
    replays_.resize(policies_.size());
    opt_options_.num_resources = kAuditOptResources;
    opt_options_.cost_model = corpus_[0].options.cost_model;
    opt_options_.reconstruct_schedule = true;
    RunOp(0, nullptr);  // warm-up op
  }

  void BuildOracle() override {
    oracle_.resize(corpus_.size());
    for (size_t k = 0; k < corpus_.size(); ++k) {
      const Tenant& tenant = corpus_[k];
      const rrs::reduce::PipelineResult pipe =
          rrs::reduce::SolveOnline(tenant.instance, tenant.options);
      Oracle& oracle = oracle_[k];
      oracle.online_cost = pipe.validation.cost;
      oracle.online_valid = pipe.validation.ok;
      oracle.lower_bound = rrs::offline::LowerBound(
          tenant.instance, kAuditOptResources, opt_options_.cost_model);
    }
  }

  void CorruptOracle() override { ++oracle_[0].online_cost.drops; }

  uint64_t RunOp(size_t i, SpanLog* log) override {
    const size_t k = i % corpus_.size();
    const Tenant& tenant = corpus_[k];
    const Audit& audit = audits_[k];
    {
      ScopedSpan span(log, "reduce.OnlineSolver", i);
      audit.solver->Reset();
      for (const auto& arrivals : audit.arrivals) audit.solver->Step(arrivals);
      audit.solver->Finish();
      online_cost_ = audit.solver->cost();
    }
    rrs::EngineOptions replay = tenant.options;
    replay.record_schedule = true;
    for (size_t p = 0; p < policies_.size(); ++p) {
      ScopedSpan span(log, span_names_[p], i);
      engine_.Reset(tenant.instance, replay);
      replays_[p] = engine_.Run(*policies_[p]);
    }
    {
      ScopedSpan span(log, "offline.SolveOptimal", i);
      opt_ = rrs::offline::SolveOptimal(tenant.instance, opt_options_);
    }
    return static_cast<uint64_t>(replays_[rounds_policy_].rounds_simulated);
  }

  bool CheckOp(size_t i) override {
    const size_t k = i % corpus_.size();
    const rrs::Instance& instance = corpus_[k].instance;
    const Oracle& oracle = oracle_[k];
    if (!oracle.online_valid || !(online_cost_ == oracle.online_cost)) {
      return false;
    }
    for (const rrs::RunResult& replay : replays_) {
      if (!replay.schedule.has_value()) return false;
      const rrs::ValidationResult v = replay.schedule->Validate(instance);
      if (!v.ok || !(v.cost == replay.cost)) return false;
    }
    if (!opt_.exact || opt_.total_cost < oracle.lower_bound ||
        !opt_.schedule.has_value()) {
      return false;
    }
    const rrs::ValidationResult v = opt_.schedule->Validate(instance);
    return v.ok && v.cost.total(opt_options_.cost_model) == opt_.total_cost;
  }

 private:
  struct Audit {
    std::vector<std::vector<std::pair<rrs::ColorId, uint64_t>>> arrivals;
    rrs::reduce::OnlineSolver* solver = nullptr;
  };
  struct Oracle {
    rrs::CostBreakdown online_cost;
    bool online_valid = false;
    uint64_t lower_bound = 0;
  };

  const Sizing sizing_;
  std::vector<Tenant> corpus_;
  std::vector<Audit> audits_;
  // One reused solver per subcolor-budget table.
  std::map<std::vector<uint32_t>, std::unique_ptr<rrs::reduce::OnlineSolver>>
      solvers_;
  std::vector<std::unique_ptr<rrs::SchedulerPolicy>> policies_;
  std::vector<std::string> span_names_;
  size_t rounds_policy_ = 0;
  rrs::Engine engine_;
  rrs::offline::OptimalOptions opt_options_;
  std::vector<Oracle> oracle_;
  rrs::CostBreakdown online_cost_;
  std::vector<rrs::RunResult> replays_;
  rrs::offline::OptimalResult opt_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(WorkloadKind kind,
                                       const Sizing& sizing) {
  switch (kind) {
    case WorkloadKind::kFleetLanes:
    case WorkloadKind::kFleetChurn:
      return std::make_unique<FleetWorkload>(kind, sizing);
    case WorkloadKind::kDistCkpt:
      return std::make_unique<DistWorkload>(sizing);
    case WorkloadKind::kRatioAudit:
      return std::make_unique<RatioWorkload>(sizing);
  }
  return nullptr;
}

}  // namespace stackbench
