// Tests for the artifact layer: schedule serialization round-trips, the
// mutation-rejection property of the validator (randomly corrupted schedules
// must be caught), and the timeline recorder + Gantt renderer.
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/timeline.h"
#include "core/engine.h"
#include "sched/registry.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

Instance ArtifactWorkload(uint64_t seed) {
  std::vector<workload::ColorSpec> specs = {{2, 0.8}, {4, 0.6}, {8, 0.4}};
  workload::PoissonOptions gen;
  gen.rounds = 48;
  gen.seed = seed;
  return MakePoisson(specs, gen);
}

// ------------------------------------------- Schedule serialization ----

TEST(ScheduleSerialization, RoundTripPreservesValidationResult) {
  Instance inst = ArtifactWorkload(5);
  auto policy = MakePolicy("greedy-edf");
  EngineOptions options;
  options.num_resources = 4;
  options.cost_model.delta = 3;
  options.record_schedule = true;
  RunResult r = RunPolicy(inst, *policy, options);
  ASSERT_TRUE(r.schedule.has_value());

  std::stringstream ss;
  r.schedule->Serialize(ss);
  Schedule back = Schedule::Deserialize(ss);
  EXPECT_EQ(back.num_resources(), r.schedule->num_resources());
  EXPECT_EQ(back.mini_rounds_per_round(),
            r.schedule->mini_rounds_per_round());
  EXPECT_EQ(back.reconfigs(), r.schedule->reconfigs());
  EXPECT_EQ(back.executions(), r.schedule->executions());

  auto v = back.Validate(inst);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.cost, r.cost);
}

TEST(ScheduleSerialization, BlackReconfigRoundTrips) {
  Schedule s(2, 2);
  s.AddReconfig(0, 0, 0, 3);
  s.AddReconfig(5, 1, 1, kNoColor);
  std::stringstream ss;
  s.Serialize(ss);
  Schedule back = Schedule::Deserialize(ss);
  ASSERT_EQ(back.reconfigs().size(), 2u);
  EXPECT_EQ(back.reconfigs()[1].to, kNoColor);
  EXPECT_EQ(back.mini_rounds_per_round(), 2);
}

TEST(ScheduleSerialization, RejectsGarbage) {
  std::stringstream ss("not a schedule\n");
  EXPECT_DEATH(Schedule::Deserialize(ss), "header");
}

TEST(ScheduleValidator, RejectsRandomMutations) {
  // Property: corrupting a valid schedule in any of several systematic ways
  // must be detected by the validator (or, for benign mutations like
  // deleting an execution, still validate but at a different cost).
  Instance inst = ArtifactWorkload(7);
  auto policy = MakePolicy("dlru-edf");
  EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 2;
  options.record_schedule = true;
  RunResult r = RunPolicy(inst, *policy, options);
  ASSERT_TRUE(r.schedule.has_value());
  const Schedule& good = *r.schedule;
  ASSERT_TRUE(good.Validate(inst).ok);
  ASSERT_FALSE(good.executions().empty());

  Rng rng(77);
  int rejected = 0, attempts = 0;
  for (int trial = 0; trial < 50; ++trial) {
    Schedule mutated(good.num_resources(), good.mini_rounds_per_round());
    for (const auto& a : good.reconfigs()) {
      mutated.AddReconfig(a.round, a.mini, a.resource, a.to);
    }
    size_t victim = rng.NextBounded(good.executions().size());
    int mutation = static_cast<int>(rng.NextBounded(4));
    for (size_t i = 0; i < good.executions().size(); ++i) {
      ExecAction a = good.executions()[i];
      if (i == victim) {
        switch (mutation) {
          case 0:  // duplicate the execution in the next round
            mutated.AddExecution(a.round, a.mini, a.resource, a.job);
            a.round += 1;
            break;
          case 1:  // push the execution past the job's deadline
            a.round = inst.deadline(a.job) + 1;
            break;
          case 2:  // execute before arrival
            a.round = inst.job(a.job).arrival - 1;
            break;
          case 3:  // point at a different (likely wrong-colored) slot time
            a.round = inst.job(a.job).arrival;
            a.resource = (a.resource + 1) % good.num_resources();
            break;
        }
      }
      if (a.round < 0) continue;  // mutation fell off the timeline
      mutated.AddExecution(a.round, a.mini, a.resource, a.job);
    }
    ++attempts;
    if (!mutated.Validate(inst).ok) ++rejected;
  }
  // Mutations 0-2 are always illegal; mutation 3 can occasionally remain
  // legal (the neighboring resource may share the color and be free), so
  // demand a high rejection rate rather than 100%.
  EXPECT_GT(rejected * 4, attempts * 3)
      << rejected << "/" << attempts << " mutations rejected";
}

// ----------------------------------------------------- Timeline ----

TEST(Timeline, SeriesAreConsistent) {
  Instance inst = ArtifactWorkload(11);
  auto inner = MakePolicy("dlru-edf");
  analysis::TimelinePolicy timeline(*inner);
  EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 2;
  RunResult r = RunPolicy(inst, timeline, options);

  Table table = timeline.ToTable();
  ASSERT_GT(table.num_rows(), 0u);

  // Sum of per-round series must match the run totals.
  uint64_t arrivals = 0, drops = 0, reconfigs = 0, executed = 0;
  const auto& samples = timeline.samples();
  // Recompute from the finalized table (samples() holds raw backlog data).
  for (size_t row = 0; row < table.num_rows(); ++row) {
    arrivals += std::stoull(table.At(row, 1));
    drops += std::stoull(table.At(row, 2));
    reconfigs += std::stoull(table.At(row, 3));
    executed += std::stoull(table.At(row, 4));
  }
  EXPECT_EQ(arrivals, r.arrived);
  EXPECT_EQ(drops, r.cost.drops);
  EXPECT_EQ(reconfigs, r.cost.reconfigurations);
  EXPECT_EQ(executed, r.executed);
  EXPECT_EQ(samples.size(), table.num_rows());
}

TEST(Timeline, SparklinesRender) {
  Instance inst = ArtifactWorkload(13);
  auto inner = MakePolicy("greedy-edf");
  analysis::TimelinePolicy timeline(*inner);
  EngineOptions options;
  options.num_resources = 4;
  RunPolicy(inst, timeline, options);
  for (const char* series : {"arrivals", "drops", "reconfigs", "executed",
                             "backlog", "utilization"}) {
    std::string line = timeline.Sparkline(series, 32);
    EXPECT_EQ(line.size(), 32u) << series;
  }
  EXPECT_DEATH(timeline.Sparkline("bogus"), "unknown timeline series");
}

TEST(Gantt, RendersSmallSchedule) {
  InstanceBuilder b;
  ColorId red = b.AddColor(4);
  ColorId blue = b.AddColor(4);
  b.AddJobs(red, 0, 2);
  b.AddJobs(blue, 0, 2);
  Instance inst = b.Build();

  Schedule s(2);
  s.AddReconfig(0, 0, 0, red);
  s.AddReconfig(0, 0, 1, blue);
  s.AddExecution(0, 0, 0, 0);
  s.AddExecution(1, 0, 0, 1);
  s.AddExecution(0, 0, 1, 2);
  ASSERT_TRUE(s.Validate(inst).ok);

  std::string gantt = analysis::RenderGantt(s, inst, 0, 3);
  // Resource 0: red ('a'), executing in rounds 0 and 1 -> "AAaa".
  EXPECT_NE(gantt.find("AAaa"), std::string::npos) << gantt;
  // Resource 1: blue ('b'), executing in round 0 only -> "Bbbb".
  EXPECT_NE(gantt.find("Bbbb"), std::string::npos) << gantt;
}

}  // namespace
}  // namespace rrs
