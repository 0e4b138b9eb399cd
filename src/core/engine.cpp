#include "core/engine.h"

#include "core/round_loop.h"
#include "util/check.h"

namespace rrs {

// The width-1 lane set: no fused kernel, so every policy runs through its
// virtual hooks. It owns the InstanceSource adapter of instance-fed runs
// (here, behind the pimpl, so the run's source pointer survives a move of
// the Engine) and the schedule of record_schedule runs.
struct Engine::Loop final : internal::RoundLoop<Engine::Loop, 1> {
  workload::InstanceSource own_source;
  Schedule schedule;
};

Engine::Engine() = default;
Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

Engine::Engine(const Instance& instance, EngineOptions options) {
  Reset(instance, options);
}

void Engine::Reset(const Instance& instance, EngineOptions options) {
  Bind(instance, nullptr, options);
  loop_->own_source.Bind(instance);
}

void Engine::Reset(const Instance& instance) { Reset(instance, options_); }

void Engine::Reset(workload::ArrivalSource& source, EngineOptions options) {
  Bind(source.shape(), &source, options);
}

void Engine::Reset(workload::ArrivalSource& source) { Reset(source, options_); }

void Engine::Bind(const Instance& shape, workload::ArrivalSource* source,
                  const EngineOptions& options) {
  RRS_CHECK(!running_) << "Engine::Reset during an open run";
  RRS_CHECK_GE(options.num_resources, 1u);
  RRS_CHECK_GE(options.mini_rounds_per_round, 1);
  RRS_CHECK_GE(options.cost_model.delta, 1u);
  external_source_ = source;
  instance_ = &shape;
  options_ = options;
  if (loop_ == nullptr) loop_ = std::make_unique<Loop>();
}

RunResult Engine::Run(SchedulerPolicy& policy) {
  RunResult result;
  BeginRun(policy);
  StepRounds(loop_->run(0).horizon + 1);
  FinishRun(result);
  return result;
}

void Engine::BeginRun(SchedulerPolicy& policy) {
  RRS_CHECK(instance_ != nullptr) << "BeginRun on an unbound engine session";
  RRS_CHECK(!running_) << "BeginRun while a run is open";
  Loop& loop = *loop_;
  const bool instance_fed = external_source_ == nullptr;
  loop.AdoptShape(*instance_, options_);
  loop.OpenRun(0, *instance_,
               instance_fed ? loop.own_source : *external_source_,
               instance_fed, options_, policy);
  if (options_.record_schedule) {
    loop.schedule =
        Schedule(options_.num_resources, options_.mini_rounds_per_round);
    loop.run(0).schedule = &loop.schedule;
  }
  loop.next_round_ = 0;
  running_ = true;
}

bool Engine::StepRounds(Round max_rounds) {
  RRS_CHECK(running_) << "StepRounds without BeginRun";
  RRS_CHECK_GE(max_rounds, 1);
  Loop& loop = *loop_;
  const Round next = loop.next_round_;
  const Round horizon = loop.run(0).horizon;
  if (next > horizon) return false;
  // Overflow-safe "min(horizon, next + max - 1)".
  const Round last =
      (max_rounds - 1 >= horizon - next) ? horizon : next + max_rounds - 1;
  for (Round k = next; k <= last; ++k) loop.PlayRound(k, 1, 1);
  loop.EndStep(last, 1);
  return last < horizon;
}

void Engine::FinishRun(RunResult& result) {
  RRS_CHECK(running_) << "FinishRun without BeginRun";
  RRS_CHECK_GT(loop_->next_round_, loop_->run(0).horizon)
      << "FinishRun before the horizon";
  loop_->FillResult(0, result);
  loop_->CloseRun(0);
  running_ = false;
}

void Engine::AbortRun() {
  RRS_CHECK(running_) << "AbortRun without an open run";
  loop_->CloseRun(0);
  running_ = false;
}

const workload::ArrivalSource& Engine::source() const {
  RRS_CHECK(loop_ != nullptr) << "source() on an unbound engine session";
  if (external_source_ != nullptr) return *external_source_;
  return loop_->own_source;
}

Round Engine::next_round() const {
  return loop_ != nullptr ? loop_->next_round_ : 0;
}

const CostBreakdown& Engine::run_cost() const {
  RRS_CHECK(running_) << "run_cost outside an open run";
  return loop_->run(0).cost;
}

uint64_t Engine::run_executed() const {
  RRS_CHECK(running_) << "run_executed outside an open run";
  return loop_->run(0).executed;
}

uint64_t Engine::run_pending(ColorId c) const {
  RRS_CHECK(running_) << "run_pending outside an open run";
  RRS_DCHECK(c < instance_->num_colors());
  return loop_->pending(c, 0);
}

void Engine::SnapshotRun(snapshot::Writer& w) const {
  RRS_CHECK(running_) << "SnapshotRun without an open run";
  RRS_CHECK(loop_->run(0).schedule == nullptr)
      << "recording runs cannot be snapshotted";
  loop_->SnapshotRun(0, w);
}

void Engine::RestoreRun(SchedulerPolicy& policy, snapshot::Reader& r,
                        snapshot::Reader* source_state) {
  // A run bound to this session's tenant with a Reset policy; the
  // checkpoint then overwrites the mutable state.
  BeginRun(policy);
  loop_->RestoreRun(0, r, source_state, /*adopt_round=*/true);
}

RunResult RunPolicy(const Instance& instance, SchedulerPolicy& policy,
                    const EngineOptions& options) {
  Engine engine(instance, options);
  return engine.Run(policy);
}

}  // namespace rrs
