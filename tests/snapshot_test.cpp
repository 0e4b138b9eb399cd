// Checkpoint/restore suite for the snapshot codec and every session core:
// the codec must round-trip values and reject corrupted/truncated/misordered
// streams loudly, and Snapshot → Restore into a *different* session object
// must continue bit-identically to the uninterrupted run — the property the
// dist fleet's migration and failover paths stand on.
#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/job_ring.h"
#include "reduce/distribute.h"
#include "reduce/online.h"
#include "reduce/pipeline.h"
#include "reduce/varbatch.h"
#include "sched/registry.h"
#include "snapshot/codec.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

Instance SnapshotTenant(uint64_t seed, Round rounds = 96) {
  std::vector<workload::ColorSpec> specs = {
      {1, 0.4}, {2, 0.5}, {4, 0.5}, {8, 0.4}, {16, 0.3}};
  workload::PoissonOptions gen;
  gen.rounds = rounds;
  gen.seed = seed;
  return MakePoisson(specs, gen);
}

EngineOptions SnapshotOptions() {
  EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 3;
  return options;
}

void ExpectSameRunResult(const RunResult& got, const RunResult& want,
                         const std::string& label) {
  EXPECT_EQ(got.cost.reconfigurations, want.cost.reconfigurations) << label;
  EXPECT_EQ(got.cost.drops, want.cost.drops) << label;
  EXPECT_EQ(got.cost.weighted_drops, want.cost.weighted_drops) << label;
  EXPECT_EQ(got.executed, want.executed) << label;
  EXPECT_EQ(got.arrived, want.arrived) << label;
  EXPECT_EQ(got.rounds_simulated, want.rounds_simulated) << label;
  EXPECT_EQ(got.drops_per_color, want.drops_per_color) << label;
  EXPECT_EQ(got.telemetry.counters, want.telemetry.counters) << label;
}

// ---- Codec ---------------------------------------------------------------

TEST(SnapshotCodec, RoundTripsScalarsAndVectors) {
  snapshot::Writer w;
  w.BeginSection(snapshot::kTagRng);
  w.PutU64(~0ULL);
  w.PutU32(0xdeadbeefu);
  w.PutI64(-42);
  w.PutBool(true);
  w.PutBool(false);
  std::vector<uint32_t> v32 = {1, 2, 3};
  std::vector<int64_t> v64 = {-1, 0, 7};
  w.PutVec(v32);
  w.PutVec(v64);
  w.EndSection();

  snapshot::Reader r(w.words());
  r.BeginSection(snapshot::kTagRng);
  EXPECT_EQ(r.GetU64(), ~0ULL);
  EXPECT_EQ(r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(r.GetI64(), -42);
  EXPECT_TRUE(r.GetBool());
  EXPECT_FALSE(r.GetBool());
  std::vector<uint32_t> got32;
  std::vector<int64_t> got64;
  r.GetVec(got32);
  r.GetVec(got64);
  EXPECT_EQ(got32, v32);
  EXPECT_EQ(got64, v64);
  r.EndSection();
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotCodec, MultipleSectionsReadBackInOrder) {
  snapshot::Writer w;
  w.BeginSection(snapshot::kTagEngine);
  w.PutU64(1);
  w.EndSection();
  w.BeginSection(snapshot::kTagLruTracker);
  w.PutU64(2);
  w.EndSection();

  snapshot::Reader r(w.words());
  r.BeginSection(snapshot::kTagEngine);
  EXPECT_EQ(r.GetU64(), 1u);
  r.EndSection();
  r.BeginSection(snapshot::kTagLruTracker);
  EXPECT_EQ(r.GetU64(), 2u);
  r.EndSection();
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotCodec, ClearKeepsHeaderAndDropsSections) {
  snapshot::Writer w;
  w.BeginSection(snapshot::kTagEngine);
  w.PutU64(99);
  w.EndSection();
  w.Clear();
  EXPECT_EQ(w.words().size(), 2u);  // magic + version only
  snapshot::Reader r(w.words());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotCodecDeath, RejectsBadMagic) {
  std::vector<uint64_t> words = {0x1234, snapshot::kVersion};
  EXPECT_DEATH(snapshot::Reader r(words), "magic");
}

TEST(SnapshotCodecDeath, RejectsBadVersion) {
  std::vector<uint64_t> words = {snapshot::kMagic, snapshot::kVersion + 1};
  EXPECT_DEATH(snapshot::Reader r(words), "version");
}

// Version skew is directional: a snapshot stamped *newer* than this reader
// comes from a future writer (mixed-version worker pool shipping
// checkpoints backwards) and must be named as such, not as a generic
// mismatch — the operator needs to know which side to upgrade.
TEST(SnapshotCodecDeath, FutureVersionGetsDirectionalDiagnostic) {
  std::vector<uint64_t> words = {snapshot::kMagic, snapshot::kVersion + 1};
  EXPECT_DEATH(snapshot::Reader r(words), "future codec version");
  std::vector<uint64_t> far_future = {snapshot::kMagic,
                                      snapshot::kVersion + 1000};
  EXPECT_DEATH(snapshot::Reader r(far_future),
               "refusing to guess at a newer format");
}

// Corruption of the *first* payload word of a section: the checksum must
// catch damage at word 0, not just in the tail (an off-by-one in the
// checksum span would skip exactly this word).
TEST(SnapshotCodecDeath, RejectsCorruptionAtPayloadWordZero) {
  snapshot::Writer w;
  w.BeginSection(snapshot::kTagEngine);
  w.PutU64(7);
  w.PutU64(8);
  w.EndSection();
  std::vector<uint64_t> words = w.words();
  // Layout: magic, version, tag, count, checksum, payload[0], payload[1].
  words[5] ^= 1;  // payload word 0
  EXPECT_DEATH(
      {
        snapshot::Reader r(words);
        r.BeginSection(snapshot::kTagEngine);
      },
      "checksum");
}

// A section truncated so hard that not even payload word 0 survives: the
// declared count overruns the stream and the reader must say "truncated",
// never index past the end.
TEST(SnapshotCodecDeath, RejectsSectionTruncatedAtWordZero) {
  snapshot::Writer w;
  w.BeginSection(snapshot::kTagEngine);
  w.PutU64(7);
  w.PutU64(8);
  w.EndSection();
  std::vector<uint64_t> words = w.words();
  words.resize(5);  // keep tag/count/checksum, drop the whole payload
  EXPECT_DEATH(
      {
        snapshot::Reader r(words);
        r.BeginSection(snapshot::kTagEngine);
      },
      "truncated inside section");
}

TEST(SnapshotCodecDeath, RejectsCorruptedPayload) {
  snapshot::Writer w;
  w.BeginSection(snapshot::kTagEngine);
  w.PutU64(7);
  w.PutU64(8);
  w.EndSection();
  std::vector<uint64_t> words = w.words();
  words.back() ^= 1;  // flip a payload bit
  EXPECT_DEATH(
      {
        snapshot::Reader r(words);
        r.BeginSection(snapshot::kTagEngine);
      },
      "checksum");
}

TEST(SnapshotCodecDeath, RejectsTruncatedStream) {
  snapshot::Writer w;
  w.BeginSection(snapshot::kTagEngine);
  w.PutU64(7);
  w.PutU64(8);
  w.EndSection();
  std::vector<uint64_t> words = w.words();
  words.pop_back();
  EXPECT_DEATH(
      {
        snapshot::Reader r(words);
        r.BeginSection(snapshot::kTagEngine);
      },
      "truncated");
}

TEST(SnapshotCodecDeath, RejectsSectionOrderDrift) {
  snapshot::Writer w;
  w.BeginSection(snapshot::kTagEngine);
  w.EndSection();
  EXPECT_DEATH(
      {
        snapshot::Reader r(w.words());
        r.BeginSection(snapshot::kTagLruTracker);
      },
      "order mismatch");
}

TEST(SnapshotCodecDeath, RejectsUnderconsumedSection) {
  snapshot::Writer w;
  w.BeginSection(snapshot::kTagEngine);
  w.PutU64(7);
  w.EndSection();
  EXPECT_DEATH(
      {
        snapshot::Reader r(w.words());
        r.BeginSection(snapshot::kTagEngine);
        r.EndSection();
      },
      "not fully consumed");
}

// ---- Rng -----------------------------------------------------------------

TEST(SnapshotRng, RestoredRngContinuesTheExactStream) {
  Rng rng(1234);
  for (int i = 0; i < 100; ++i) rng.Next();
  const auto state = rng.SaveState();

  Rng restored(999);  // different seed, fully overwritten by LoadState
  restored.LoadState(state);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(restored.Next(), rng.Next()) << "draw " << i;
  }
}

// ---- Engine: snapshot mid-run, restore on another session ----------------

class EngineSnapshotEveryPolicy
    : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineSnapshotEveryPolicy, RestoredRunFinishesBitIdentically) {
  const std::string name = GetParam();
  Instance instance = SnapshotTenant(7);
  EngineOptions options = SnapshotOptions();

  // Uninterrupted oracle.
  auto oracle_policy = MakePolicy(name);
  ASSERT_NE(oracle_policy, nullptr) << name;
  RunResult oracle = RunPolicy(instance, *oracle_policy, options);

  for (Round cut : {Round{1}, Round{17}, Round{64}}) {
    // Run to the cut, snapshot, keep stepping the original to the end.
    Engine engine;
    engine.Reset(instance, options);
    auto policy = MakePolicy(name);
    engine.BeginRun(*policy);
    engine.StepRounds(cut);
    snapshot::Writer w;
    engine.SnapshotRun(w);
    while (engine.StepRounds(64)) {
    }
    RunResult original;
    engine.FinishRun(original);
    ExpectSameRunResult(original, oracle, name + " original");

    // Restore into a *different* engine + policy object (worker migration)
    // and finish from the cut.
    Engine migrated;
    migrated.Reset(instance, options);
    auto policy2 = MakePolicy(name);
    snapshot::Reader r(w.words());
    migrated.RestoreRun(*policy2, r);
    EXPECT_TRUE(r.AtEnd()) << name;
    EXPECT_EQ(migrated.next_round(), cut) << name;
    while (migrated.StepRounds(64)) {
    }
    RunResult resumed;
    migrated.FinishRun(resumed);
    ExpectSameRunResult(resumed, oracle,
                        name + " restored at " + std::to_string(cut));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EngineSnapshotEveryPolicy,
                         ::testing::ValuesIn(PolicyNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(EngineSnapshot, SnapshotOfRestoredSessionIsIdentical) {
  // Snapshot determinism: re-snapshotting a restored session at the same
  // round produces the same words — checkpoints of checkpoints are stable.
  Instance instance = SnapshotTenant(11);
  EngineOptions options = SnapshotOptions();

  Engine engine;
  engine.Reset(instance, options);
  auto policy = MakePolicy("dlru-edf");
  engine.BeginRun(*policy);
  engine.StepRounds(23);
  snapshot::Writer first;
  engine.SnapshotRun(first);

  Engine restored;
  restored.Reset(instance, options);
  auto policy2 = MakePolicy("dlru-edf");
  snapshot::Reader r(first.words());
  restored.RestoreRun(*policy2, r);
  snapshot::Writer second;
  restored.SnapshotRun(second);
  EXPECT_EQ(first.words(), second.words());
}

TEST(EngineSnapshot, RestoreWorksAcrossPriorSessionShapes) {
  // Restoring onto an engine whose arena grew for a *larger* earlier tenant
  // must still be exact (oversized buffers, wheel resized down).
  Instance big = SnapshotTenant(3, 512);
  Instance small = SnapshotTenant(5, 64);
  EngineOptions options = SnapshotOptions();

  auto oracle_policy = MakePolicy("dlru-edf");
  RunResult oracle = RunPolicy(small, *oracle_policy, options);

  Engine donor;
  donor.Reset(small, options);
  auto policy = MakePolicy("dlru-edf");
  donor.BeginRun(*policy);
  donor.StepRounds(9);
  snapshot::Writer w;
  donor.SnapshotRun(w);
  donor.AbortRun();

  Engine grown;
  grown.Reset(big, options);
  auto big_policy = MakePolicy("dlru-edf");
  RunResult ignored = grown.Run(*big_policy);
  (void)ignored;

  grown.Reset(small, options);
  auto policy2 = MakePolicy("dlru-edf");
  snapshot::Reader r(w.words());
  grown.RestoreRun(*policy2, r);
  while (grown.StepRounds(64)) {
  }
  RunResult resumed;
  grown.FinishRun(resumed);
  ExpectSameRunResult(resumed, oracle, "restore into grown arena");
}

TEST(EngineSnapshotDeath, RestoreRejectsOutOfRangeResourceColor) {
  // A checkpoint with a valid checksum whose resource color lies past the
  // color table must die in RestoreRun, not index past the per-color arrays
  // on the next step.
  std::vector<workload::ColorSpec> specs = {{1, 0.4}, {2, 0.5}, {4, 0.5}};
  workload::PoissonOptions gen;
  gen.rounds = 32;
  gen.seed = 13;
  Instance instance = MakePoisson(specs, gen);
  EngineOptions options = SnapshotOptions();

  Engine engine(instance, options);
  auto policy = MakePolicy("dlru-edf");
  engine.BeginRun(*policy);
  engine.StepRounds(5);
  snapshot::Writer w;
  engine.SnapshotRun(w);
  engine.AbortRun();

  // [magic][version][tag][payload words][checksum], then the engine payload:
  // colors, resources, round, resource_color count, resource_color[0], ...
  std::vector<uint64_t> words = w.words();
  constexpr size_t kPayload = 5;
  ASSERT_EQ(words[2], snapshot::kTagEngine);
  ASSERT_EQ(words[kPayload + 3], options.num_resources);
  words[kPayload + 4] = 1000;
  words[4] = snapshot::FnvWords(
      std::span<const uint64_t>(words).subspan(kPayload, words[3]));

  Engine restored(instance, options);
  auto policy2 = MakePolicy("dlru-edf");
  snapshot::Reader r(words);
  EXPECT_DEATH(restored.RestoreRun(*policy2, r), "resource color");
}

TEST(EngineSnapshot, ReusedSessionSnapshotEqualsFreshSession) {
  // Checkpoint words depend only on the run, not on what a pooled session
  // served before: after a tenant whose delay bounds reach 32, a tenant with
  // D <= 8 checkpoints exactly as it would on a fresh session.
  workload::PoissonOptions gen;
  gen.rounds = 96;
  gen.seed = 21;
  const Instance wide = MakePoisson({{1, 0.4}, {8, 0.5}, {32, 0.5}}, gen);
  gen.seed = 22;
  const Instance narrow = MakePoisson({{2, 0.5}, {4, 0.5}, {8, 0.4}}, gen);
  const EngineOptions options = SnapshotOptions();

  auto checkpoint = [&](Engine& engine) {
    engine.Reset(narrow, options);
    auto policy = MakePolicy("dlru-edf");
    engine.BeginRun(*policy);
    engine.StepRounds(9);
    snapshot::Writer w;
    engine.SnapshotRun(w);
    engine.AbortRun();
    return w.words();
  };
  Engine reused;
  reused.Reset(wide, options);
  auto wide_policy = MakePolicy("dlru-edf");
  const RunResult ignored = reused.Run(*wide_policy);
  (void)ignored;
  Engine fresh;
  EXPECT_EQ(checkpoint(reused), checkpoint(fresh));
}

TEST(EngineSnapshotDeath, RestoreRejectsRingDeadlinesOutsideTheLiveWindow) {
  // A pending color-c job at round k expires in [k, k + D_c - 1]. A
  // checkpoint (valid checksum) whose ring deadlines were shifted out of that
  // window must die in RestoreRun: a deadline the drop phase never meets
  // would keep the job, and every job queued behind it, from expiring.
  workload::PoissonOptions gen;
  gen.rounds = 64;
  gen.seed = 5;
  const Instance instance =
      MakePoisson({{4, 2.5}, {8, 2.5}, {16, 2.5}}, gen);
  EngineOptions options;
  options.num_resources = 4;
  options.cost_model.delta = 2;
  constexpr Round kCut = 20;

  Engine engine(instance, options);
  auto policy = MakePolicy("dlru-edf");
  engine.BeginRun(*policy);
  engine.StepRounds(kCut);
  snapshot::Writer w;
  engine.SnapshotRun(w);
  engine.AbortRun();

  // [magic][version][tag][payload words][checksum], then the engine payload:
  // colors, resources, round, resource colors, then color 0's ring: its
  // count, its job ids and its deadlines.
  constexpr size_t kPayload = 5;
  ASSERT_EQ(w.words()[2], snapshot::kTagEngine);
  const size_t ring_at = kPayload + 3 + 1 + options.num_resources;
  const uint64_t jobs = w.words()[ring_at];
  ASSERT_GE(jobs, 1u) << "color 0 has nothing pending at the cut";
  for (const int64_t shift : {-5, 3}) {
    std::vector<uint64_t> words = w.words();
    for (uint64_t i = 0; i < jobs; ++i) {
      const size_t at = ring_at + 1 + jobs + i;
      ASSERT_GE(static_cast<Round>(words[at]), kCut);
      words[at] = static_cast<uint64_t>(static_cast<Round>(words[at]) + shift);
    }
    words[4] = snapshot::FnvWords(
        std::span<const uint64_t>(words).subspan(kPayload, words[3]));
    Engine restored(instance, options);
    auto policy2 = MakePolicy("dlru-edf");
    snapshot::Reader r(words);
    EXPECT_DEATH(restored.RestoreRun(*policy2, r), "ring deadline")
        << "shift " << shift;
  }
}

TEST(EngineSnapshotDeath, RestoreRejectsNonidleListThatDisagreesWithFlags) {
  // The reconfiguration phase sees only the nonidle list, and a color joins
  // the list only while its flag is clear. A checkpoint (valid checksum)
  // whose list and flags disagree must die in RestoreRun: a flagged color
  // with jobs but missing from the list would never be scheduled again.
  // Color 3 never arrives, so it is never flagged.
  workload::PoissonOptions gen;
  gen.rounds = 64;
  gen.seed = 7;
  const Instance instance =
      MakePoisson({{2, 1.5}, {4, 1.5}, {8, 1.5}, {16, 0.0}}, gen);
  EngineOptions options = SnapshotOptions();
  options.num_resources = 4;

  Engine engine(instance, options);
  auto policy = MakePolicy("dlru-edf");
  engine.BeginRun(*policy);
  engine.StepRounds(30);
  snapshot::Writer w;
  engine.SnapshotRun(w);
  engine.AbortRun();

  // [magic][version][tag][payload words][checksum], then the engine payload:
  // colors, resources, round, resource colors, one ring per color, pending
  // counts, the nonidle list and its flags.
  constexpr size_t kPayload = 5;
  ASSERT_EQ(w.words()[2], snapshot::kTagEngine);
  size_t list_at = 0;
  std::vector<uint64_t> pending;
  {
    snapshot::Reader r(w.words());
    r.BeginSection(snapshot::kTagEngine);
    r.GetU64();
    r.GetU32();
    r.GetI64();
    std::vector<ColorId> resource_colors;
    r.GetVec(resource_colors);
    JobRing ring;
    for (size_t c = 0; c < instance.num_colors(); ++c) ring.LoadState(r);
    r.GetVec(pending);
    list_at = kPayload + w.words()[3] - r.remaining();
  }
  const size_t listed = w.words()[list_at];
  const size_t flags_at = list_at + 1 + listed + 1;
  ASSERT_GE(listed, 2u) << "fewer than two nonidle colors at the cut";
  // A listed color with jobs, the list position of another listed color,
  // and a color without a flag.
  size_t busy_at = listed;
  for (size_t i = 0; i < listed; ++i) {
    if (pending[w.words()[list_at + 1 + i]] > 0) busy_at = i;
  }
  ASSERT_LT(busy_at, listed) << "no listed color has jobs";
  const uint64_t busy = w.words()[list_at + 1 + busy_at];
  const size_t other_at = list_at + 1 + (busy_at == 0 ? 1 : 0);
  size_t unflagged = instance.num_colors();
  for (size_t c = 0; c < instance.num_colors(); ++c) {
    if (w.words()[flags_at + c] == 0) unflagged = c;
  }
  ASSERT_LT(unflagged, instance.num_colors()) << "every color is flagged";

  auto mutated = [&](std::vector<std::pair<size_t, uint64_t>> edits) {
    std::vector<uint64_t> words = w.words();
    for (const auto& [at, value] : edits) words[at] = value;
    words[4] = snapshot::FnvWords(
        std::span<const uint64_t>(words).subspan(kPayload, words[3]));
    return words;
  };
  const std::vector<std::pair<const char*, std::vector<uint64_t>>> cases = {
      {"listed twice", mutated({{other_at, busy}})},
      // The reconfiguration phase would never see busy's jobs again.
      {"flagged color with jobs missing from the list",
       mutated({{list_at + 1 + busy_at, unflagged},
                {flags_at + unflagged, 1}})},
      {"flag 2", mutated({{flags_at + busy, 2}})},
      {"color with jobs unflagged", mutated({{flags_at + busy, 0}})},
  };
  for (const auto& [label, words] : cases) {
    Engine restored(instance, options);
    auto policy2 = MakePolicy("dlru-edf");
    snapshot::Reader r(words);
    EXPECT_DEATH(restored.RestoreRun(*policy2, r), "snapshot nonidle")
        << label;
  }
}

TEST(EngineSnapshot, MovedSessionKeepsItsRun) {
  // An Engine moved with a run open takes the run along: the adapter that
  // feeds an Instance-bound run lives behind the pimpl, so after the
  // moved-from session is gone the moved-to one steps, re-syncs its source,
  // checkpoints and finishes exactly like Run().
  const Instance instance = SnapshotTenant(9);
  const EngineOptions options = SnapshotOptions();
  auto oracle_policy = MakePolicy("dlru-edf");
  const RunResult oracle = RunPolicy(instance, *oracle_policy, options);

  auto policy = MakePolicy("dlru-edf");
  std::optional<Engine> first(std::in_place, instance, options);
  first->BeginRun(*policy);
  first->StepRounds(10);
  Engine moved(std::move(*first));
  first.reset();
  moved.StepRounds(13);
  EXPECT_EQ(moved.source().cursor(),
            std::min(moved.next_round(), instance.num_request_rounds()));
  snapshot::Writer w;
  moved.SnapshotRun(w);
  Engine assigned;
  assigned = std::move(moved);
  while (assigned.StepRounds(16)) {
  }
  RunResult result;
  assigned.FinishRun(result);
  ExpectSameRunResult(result, oracle, "moved mid-run");

  // A restored run moves the same way.
  std::optional<Engine> restored(std::in_place, instance, options);
  auto policy2 = MakePolicy("dlru-edf");
  snapshot::Reader r(w.words());
  restored->RestoreRun(*policy2, r);
  Engine target(std::move(*restored));
  restored.reset();
  while (target.StepRounds(16)) {
  }
  RunResult resumed;
  target.FinishRun(resumed);
  ExpectSameRunResult(resumed, oracle, "restored, then moved");
}

// ---- OnlineSolver --------------------------------------------------------

std::vector<std::pair<ColorId, uint64_t>> RoundArrivals(
    const Instance& instance, Round k) {
  std::vector<std::pair<ColorId, uint64_t>> arrivals;
  auto jobs = instance.jobs_in_round(k);
  size_t i = 0;
  while (i < jobs.size()) {
    ColorId c = jobs[i].color;
    uint64_t count = 0;
    while (i < jobs.size() && jobs[i].color == c) {
      ++count;
      ++i;
    }
    arrivals.emplace_back(c, count);
  }
  return arrivals;
}

TEST(OnlineSolverSnapshot, RestoredSolverContinuesBitIdentically) {
  Instance instance = SnapshotTenant(33, 80);
  if (instance.num_jobs() == 0) GTEST_SKIP();
  EngineOptions options = SnapshotOptions();

  auto varbatch = reduce::VarBatchInstance(instance);
  auto distribute = reduce::DistributeInstance(varbatch.transformed);
  std::vector<reduce::OnlineSolver::ColorSpec> colors;
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    colors.push_back(
        {instance.delay_bound(c), distribute.subcolors_per_color[c]});
  }

  reduce::OnlineSolver original(colors, options);
  const Round cut = 29;
  for (Round k = 0; k < cut; ++k) original.Step(RoundArrivals(instance, k));

  snapshot::Writer w;
  original.SaveState(w);

  reduce::OnlineSolver restored(colors, options);
  snapshot::Reader r(w.words());
  restored.LoadState(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.current_round(), cut);

  for (Round k = cut; k < instance.num_request_rounds(); ++k) {
    auto arrivals = RoundArrivals(instance, k);
    original.Step(arrivals);
    restored.Step(arrivals);
  }
  original.Finish();
  restored.Finish();
  EXPECT_EQ(original.cost().reconfigurations,
            restored.cost().reconfigurations);
  EXPECT_EQ(original.cost().drops, restored.cost().drops);
  EXPECT_EQ(original.arrived(), restored.arrived());
  EXPECT_EQ(original.executed(), restored.executed());
}

// ---- PipelineSession -----------------------------------------------------

TEST(PipelineSessionSnapshot, RestoredSessionMatchesAndKeepsCounting) {
  Instance a = SnapshotTenant(41, 64);
  Instance b = SnapshotTenant(43, 64);
  EngineOptions options = SnapshotOptions();

  reduce::PipelineSession original;
  original.SolveOnline(a, options);
  original.SolveOnline(b, options);

  snapshot::Writer w;
  original.SaveState(w);

  reduce::PipelineSession restored;
  snapshot::Reader r(w.words());
  restored.LoadState(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.tenants_served(), original.tenants_served());

  // Both sessions solve the next tenant identically (the arena is capacity,
  // not state).
  const reduce::PipelineResult& x = original.SolveOnline(a, options);
  const CostBreakdown cx = x.cost();
  const reduce::PipelineResult& y = restored.SolveOnline(a, options);
  const CostBreakdown cy = y.cost();
  EXPECT_EQ(cx.reconfigurations, cy.reconfigurations);
  EXPECT_EQ(cx.drops, cy.drops);
  EXPECT_EQ(original.tenants_served(), restored.tenants_served());
}

}  // namespace
}  // namespace rrs
