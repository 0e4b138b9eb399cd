// Differential suite for streaming ArrivalSources (workload/arrival_source.h):
//
//  - every generator family, fed to the engine as a live source, is
//    bit-identical to running the materialized Instance — for every registry
//    policy (lookahead runs through InstanceSource, which preserves the
//    clairvoyant view);
//  - snapshot bytes of a source-fed run equal the instance-fed run's, and
//    mid-run save/load cuts (including the engine-words + source-words
//    migration format) resume bit-identically;
//  - the streaming TraceStats fold equals the materialized fold, double for
//    double.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "fleet/dist/protocol.h"
#include "sched/registry.h"
#include "snapshot/codec.h"
#include "workload/arrival_source.h"
#include "workload/generator_spec.h"
#include "workload/memctrl.h"
#include "workload/scenarios.h"
#include "workload/source.h"
#include "workload/synthetic.h"
#include "workload/trace_stats.h"

namespace rrs {
namespace {

using workload::ArrivalSource;
using workload::InstanceSource;

struct NamedSource {
  std::string name;
  std::function<std::unique_ptr<ArrivalSource>()> make;
};

// Small-but-irregular configurations of every generator family: short
// horizons keep the 6 families x 12 policies sweep cheap, mixed delay
// bounds keep the timing wheel honest.
std::vector<NamedSource> GeneratorFamilies() {
  std::vector<NamedSource> families;
  families.push_back({"poisson", [] {
    return workload::MakePoissonSource({{1, 0.8}, {3, 1.4}, {8, 0.5}},
                                       {.rounds = 72, .seed = 11});
  }});
  families.push_back({"bursty", [] {
    workload::BurstyOptions options;
    options.rounds = 72;
    options.p_on_to_off = 0.2;
    options.p_off_to_on = 0.3;
    options.start_on = true;
    options.seed = 12;
    return workload::MakeBurstySource({{2, 2.0}, {5, 1.0}}, options);
  }});
  families.push_back({"zipf", [] {
    workload::ZipfOptions options;
    options.num_colors = 5;
    options.delay_choices = {1, 2, 4};
    options.jobs_per_round = 3.0;
    options.rounds = 72;
    options.seed = 13;
    return workload::MakeZipfSource(options);
  }});
  families.push_back({"router", [] {
    workload::RouterOptions options;
    options.rounds = 96;
    options.period = 24;
    options.seed = 14;
    return workload::MakeRouterSource(workload::DefaultRouterServices(),
                                      options);
  }});
  families.push_back({"datacenter", [] {
    workload::DatacenterOptions options;
    options.num_services = 4;
    options.delay_choices = {2, 4, 8};
    options.rounds = 96;
    options.phase_length = 24;
    options.seed = 15;
    return workload::MakeDatacenterSource(options);
  }});
  families.push_back({"memctrl", [] {
    workload::MemctrlOptions options;
    options.num_ranks = 2;
    options.banks_per_rank = 2;
    options.rounds = 96;
    options.refresh_period = 24;
    options.refresh_length = 4;
    options.seed = 16;
    return workload::MakeMemctrlSource(options);
  }});
  return families;
}

void ExpectSameResult(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.cost.reconfigurations, b.cost.reconfigurations) << label;
  EXPECT_EQ(a.cost.drops, b.cost.drops) << label;
  EXPECT_EQ(a.cost.weighted_drops, b.cost.weighted_drops) << label;
  EXPECT_EQ(a.executed, b.executed) << label;
  EXPECT_EQ(a.arrived, b.arrived) << label;
  EXPECT_EQ(a.rounds_simulated, b.rounds_simulated) << label;
  EXPECT_EQ(a.drops_per_color, b.drops_per_color) << label;
}

RunResult RunSource(ArrivalSource& source, const std::string& policy_name,
                    const EngineOptions& options) {
  auto policy = MakePolicy(policy_name);
  Engine engine;
  engine.Reset(source, options);
  return engine.Run(*policy);
}

// ---- Generator x policy equivalence ---------------------------------------

TEST(SourceDifferential, EveryGeneratorEveryPolicyMatchesMaterialized) {
  EngineOptions options;
  options.num_resources = 4;
  for (const NamedSource& family : GeneratorFamilies()) {
    auto source = family.make();
    const Instance materialized = workload::Materialize(*source);
    for (const std::string& name : PolicyNames()) {
      auto policy = MakePolicy(name);
      const RunResult instance_fed =
          RunPolicy(materialized, *policy, options);
      // Clairvoyant policies need the full job future, which only the
      // InstanceSource adapter preserves (generator shapes are jobless).
      RunResult source_fed;
      if (name == "lookahead") {
        InstanceSource adapter(materialized);
        source_fed = RunSource(adapter, name, options);
      } else {
        source_fed = RunSource(*source, name, options);
      }
      ExpectSameResult(instance_fed, source_fed, family.name + "/" + name);
    }
  }
}

// ---- Snapshot equivalence and save/load cuts ------------------------------

TEST(SourceSnapshot, SourceFedSnapshotBytesEqualInstanceFed) {
  auto source = GeneratorFamilies()[1].make();
  const Instance materialized = workload::Materialize(*source);
  EngineOptions options;
  options.num_resources = 4;

  Engine instance_fed(materialized, options);
  auto policy_a = MakePolicy("dlru-edf");
  instance_fed.BeginRun(*policy_a);
  instance_fed.StepRounds(17);

  Engine source_fed;
  source_fed.Reset(*source, options);
  auto policy_b = MakePolicy("dlru-edf");
  source_fed.BeginRun(*policy_b);
  source_fed.StepRounds(17);

  snapshot::Writer wa;
  snapshot::Writer wb;
  instance_fed.SnapshotRun(wa);
  source_fed.SnapshotRun(wb);
  EXPECT_EQ(wa.words(), wb.words())
      << "source-fed snapshot diverges from instance-fed";
}

// Drains `source` from its cursor to the end of its request horizon and
// appends every emitted (color, count) run.
std::vector<ArrivalSource::Run> DrainRuns(ArrivalSource& source) {
  std::vector<ArrivalSource::Run> all;
  while (source.cursor() < source.num_request_rounds()) {
    const auto runs = source.NextRound();
    all.insert(all.end(), runs.begin(), runs.end());
    all.emplace_back(kNoColor, source.cursor());  // round separator
  }
  return all;
}

TEST(SourceSnapshot, SaveLoadCutsResumeIdentically) {
  for (const NamedSource& c : GeneratorFamilies()) {
    auto original = c.make();
    const Round cut =
        std::min<Round>(13, original->num_request_rounds() / 2);
    for (Round k = 0; k < cut; ++k) original->NextRound();
    snapshot::Writer w;
    original->SaveState(w);
    const std::vector<ArrivalSource::Run> expected = DrainRuns(*original);

    auto restored = c.make();
    snapshot::Reader r(w.words());
    restored->LoadState(r);
    EXPECT_TRUE(r.AtEnd()) << c.name;
    EXPECT_EQ(restored->cursor(), cut) << c.name;
    EXPECT_EQ(DrainRuns(*restored), expected) << c.name;

    // SeekRound replay reaches the same point as the state words.
    auto replayed = c.make();
    replayed->SeekRound(cut);
    EXPECT_EQ(DrainRuns(*replayed), expected) << c.name;
  }
}

TEST(SourceSnapshot, CloneStartsFreshAndMatches) {
  for (const NamedSource& family : GeneratorFamilies()) {
    auto source = family.make();
    for (Round k = 0; k < 9 && k < source->num_request_rounds(); ++k) {
      source->NextRound();
    }
    auto clone = source->Clone();
    EXPECT_EQ(clone->cursor(), 0) << family.name;
    EXPECT_EQ(clone->num_request_rounds(), source->num_request_rounds())
        << family.name;
    EXPECT_EQ(clone->horizon(), source->horizon()) << family.name;
    source->Reset();
    EXPECT_EQ(DrainRuns(*clone), DrainRuns(*source)) << family.name;
  }
}

TEST(SourceSnapshot, EngineMigrationFormatRestoresSourceFedRun) {
  // The dist migration format: [engine words][source words] in one stream,
  // restored with RestoreRun(policy, r, &r).
  for (const NamedSource& family : GeneratorFamilies()) {
    EngineOptions options;
    options.num_resources = 4;
    auto source = family.make();
    Engine engine;
    engine.Reset(*source, options);
    auto policy = MakePolicy("dlru-edf");
    engine.BeginRun(*policy);
    engine.StepRounds(11);
    snapshot::Writer w;
    engine.SnapshotRun(w);
    source->SaveState(w);
    // Reference: keep stepping the original to completion.
    while (engine.StepRounds(64)) {
    }
    RunResult expected;
    engine.FinishRun(expected);

    auto fresh_source = family.make();
    Engine restored;
    restored.Reset(*fresh_source, options);
    auto fresh_policy = MakePolicy("dlru-edf");
    snapshot::Reader r(w.words());
    restored.RestoreRun(*fresh_policy, r, &r);
    EXPECT_TRUE(r.AtEnd()) << family.name;
    while (restored.StepRounds(64)) {
    }
    RunResult resumed;
    restored.FinishRun(resumed);
    ExpectSameResult(expected, resumed, family.name + "/migration");
  }
}

// ---- GeneratorSpec round trips --------------------------------------------

TEST(GeneratorSpecTest, WireRoundTripRebuildsIdenticalSources) {
  std::vector<workload::GeneratorSpec> specs;
  specs.push_back(workload::PoissonSpec({{1, 0.8}, {3, 1.4}, {8, 0.5}},
                                        {.rounds = 72, .seed = 11}));
  {
    workload::BurstyOptions options;
    options.rounds = 72;
    options.p_on_to_off = 0.2;
    options.p_off_to_on = 0.3;
    options.start_on = true;
    options.seed = 12;
    specs.push_back(workload::BurstySpec({{2, 2.0}, {5, 1.0}}, options));
  }
  {
    workload::ZipfOptions options;
    options.num_colors = 5;
    options.delay_choices = {1, 2, 4};
    options.jobs_per_round = 3.0;
    options.rounds = 72;
    options.seed = 13;
    specs.push_back(workload::ZipfSpec(options));
  }
  {
    workload::RouterOptions options;
    options.rounds = 96;
    options.period = 24;
    options.seed = 14;
    specs.push_back(
        workload::RouterSpec(workload::DefaultRouterServices(), options));
  }
  {
    workload::DatacenterOptions options;
    options.num_services = 4;
    options.rounds = 96;
    options.phase_length = 24;
    options.seed = 15;
    specs.push_back(workload::DatacenterSpec(options));
  }
  {
    workload::MemctrlOptions options;
    options.rounds = 96;
    options.refresh_period = 24;
    options.refresh_length = 4;
    options.seed = 16;
    specs.push_back(workload::MemctrlSpec(options));
  }
  for (const workload::GeneratorSpec& spec : specs) {
    snapshot::Writer w;
    fleet::dist::Put(w, spec);
    snapshot::Reader r(w.words());
    const workload::GeneratorSpec decoded =
        fleet::dist::Get<workload::GeneratorSpec>(r);
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(decoded, spec);
    auto direct = workload::MakeSource(spec);
    auto via_wire = workload::MakeSource(decoded);
    EXPECT_EQ(DrainRuns(*via_wire), DrainRuns(*direct));
  }
}

// ---- TraceStats streaming fold --------------------------------------------

TEST(TraceStatsStreaming, FoldEqualsMaterializedFold) {
  for (const NamedSource& family : GeneratorFamilies()) {
    auto source = family.make();
    const Instance materialized = workload::Materialize(*source);
    const workload::TraceStats dense =
        workload::ComputeTraceStats(materialized);
    const workload::TraceStats streamed =
        workload::ComputeTraceStats(*source);
    EXPECT_EQ(source->cursor(), 0) << family.name << ": fold must Reset";
    EXPECT_EQ(dense.total_jobs, streamed.total_jobs) << family.name;
    EXPECT_EQ(dense.request_rounds, streamed.request_rounds) << family.name;
    EXPECT_EQ(dense.total_rate, streamed.total_rate) << family.name;
    EXPECT_EQ(dense.min_feasible_resources, streamed.min_feasible_resources)
        << family.name;
    ASSERT_EQ(dense.colors.size(), streamed.colors.size()) << family.name;
    for (size_t c = 0; c < dense.colors.size(); ++c) {
      const workload::ColorStats& x = dense.colors[c];
      const workload::ColorStats& y = streamed.colors[c];
      EXPECT_EQ(x.jobs, y.jobs) << family.name << " color " << c;
      EXPECT_EQ(x.mean_rate, y.mean_rate) << family.name << " color " << c;
      EXPECT_EQ(x.peak_round, y.peak_round) << family.name << " color " << c;
      EXPECT_EQ(x.peak_window, y.peak_window)
          << family.name << " color " << c;
      EXPECT_EQ(x.burstiness, y.burstiness) << family.name << " color " << c;
      EXPECT_EQ(x.load_factor, y.load_factor)
          << family.name << " color " << c;
    }
  }
}

// ---- Memctrl + FR-FCFS ----------------------------------------------------

TEST(MemctrlTest, FrFcfsRunsDeterministically) {
  workload::MemctrlOptions gen;
  gen.rounds = 128;
  gen.seed = 7;
  EngineOptions options;
  options.num_resources = 4;
  auto a = workload::MakeMemctrlSource(gen);
  auto b = workload::MakeMemctrlSource(gen);
  const RunResult first = RunSource(*a, "frfcfs", options);
  const RunResult second = RunSource(*b, "frfcfs", options);
  ExpectSameResult(first, second, "frfcfs determinism");
  EXPECT_GT(first.arrived, 0u);
  EXPECT_EQ(first.executed + first.cost.drops, first.arrived);
}

TEST(MemctrlTest, RefreshWindowsStallThenFlush) {
  // During a rank's refresh window the source must emit nothing for that
  // rank's banks; the stashed demand reappears afterwards (no jobs lost
  // relative to total arrivals being conserved across save/load).
  workload::MemctrlOptions gen;
  gen.num_ranks = 1;
  gen.banks_per_rank = 2;
  gen.rounds = 64;
  gen.refresh_period = 16;
  gen.refresh_length = 4;
  gen.burst_rate = 2.0;
  gen.idle_rate = 1.0;
  gen.seed = 3;
  auto source = workload::MakeMemctrlSource(gen);
  source->Reset();
  while (source->cursor() < source->num_request_rounds()) {
    const Round k = source->cursor();
    const bool in_refresh =
        k % gen.refresh_period < gen.refresh_length;
    const auto runs = source->NextRound();
    if (in_refresh) {
      EXPECT_TRUE(runs.empty()) << "arrivals during refresh at round " << k;
    }
  }
}

}  // namespace
}  // namespace rrs
