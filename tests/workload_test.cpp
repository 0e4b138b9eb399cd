// Tests for src/workload: synthetic generators, the Appendix A/B adversary
// constructions and their hand-built OFF schedules (validated and checked
// against the paper's closed-form costs), the scenario generators, and the
// range checks on restored generator state.
#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/schedule.h"
#include "snapshot/codec.h"
#include "util/rng.h"
#include "workload/adversary.h"
#include "workload/arrival_source.h"
#include "workload/memctrl.h"
#include "workload/scenarios.h"
#include "workload/source.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

using workload::ColorSpec;

// ------------------------------------------------------------ Synthetic ----

TEST(Synthetic, PoissonDeterministicInSeed) {
  std::vector<ColorSpec> specs = {{2, 1.0}, {4, 0.5}};
  workload::PoissonOptions gen;
  gen.rounds = 64;
  gen.seed = 9;
  Instance a = MakePoisson(specs, gen);
  Instance b = MakePoisson(specs, gen);
  ASSERT_EQ(a.num_jobs(), b.num_jobs());
  for (JobId id = 0; id < a.num_jobs(); ++id) EXPECT_EQ(a.job(id), b.job(id));
}

TEST(Synthetic, PoissonRateControlsVolume) {
  std::vector<ColorSpec> low = {{2, 0.1}};
  std::vector<ColorSpec> high = {{2, 5.0}};
  workload::PoissonOptions gen;
  gen.rounds = 256;
  gen.seed = 13;
  EXPECT_LT(MakePoisson(low, gen).num_jobs(),
            MakePoisson(high, gen).num_jobs());
}

TEST(Synthetic, PoissonBatchedIsBatched) {
  std::vector<ColorSpec> specs = {{4, 1.0}, {8, 1.0}};
  workload::PoissonOptions gen;
  gen.rounds = 64;
  gen.batched = true;
  gen.seed = 17;
  Instance inst = MakePoisson(specs, gen);
  EXPECT_TRUE(inst.IsBatched());
}

TEST(Synthetic, PoissonRateLimitedIsRateLimited) {
  std::vector<ColorSpec> specs = {{2, 10.0}};  // heavy overload, must clamp
  workload::PoissonOptions gen;
  gen.rounds = 32;
  gen.rate_limited = true;
  gen.seed = 19;
  Instance inst = MakePoisson(specs, gen);
  EXPECT_TRUE(inst.IsRateLimited());
  EXPECT_GT(inst.num_jobs(), 0u);
}

TEST(Synthetic, BurstyHasQuietAndBusyStretches) {
  std::vector<ColorSpec> specs = {{4, 4.0}};
  workload::BurstyOptions gen;
  gen.rounds = 512;
  gen.p_off_to_on = 0.02;
  gen.p_on_to_off = 0.1;
  gen.seed = 23;
  Instance inst = MakeBursty(specs, gen);
  ASSERT_GT(inst.num_jobs(), 0u);
  // At least one empty round and one busy round.
  bool saw_empty = false, saw_busy = false;
  for (Round r = 0; r < 512; ++r) {
    auto jobs = inst.jobs_in_round(r);
    saw_empty |= jobs.empty();
    saw_busy |= jobs.size() >= 2;
  }
  EXPECT_TRUE(saw_empty);
  EXPECT_TRUE(saw_busy);
}

TEST(Synthetic, ZipfSkewsPopularColors) {
  workload::ZipfOptions gen;
  gen.num_colors = 8;
  gen.zipf_exponent = 1.5;
  gen.jobs_per_round = 8.0;
  gen.rounds = 256;
  gen.seed = 29;
  Instance inst = MakeZipf(gen);
  const auto& per_color = inst.jobs_per_color();
  // Rank-0 color should dominate rank-7 heavily at exponent 1.5.
  EXPECT_GT(per_color[0], per_color[7] * 4);
}

TEST(Synthetic, ZipfDelayChoicesCycle) {
  workload::ZipfOptions gen;
  gen.num_colors = 5;
  gen.delay_choices = {2, 8};
  gen.rounds = 8;
  gen.seed = 31;
  Instance inst = MakeZipf(gen);
  EXPECT_EQ(inst.delay_bound(0), 2);
  EXPECT_EQ(inst.delay_bound(1), 8);
  EXPECT_EQ(inst.delay_bound(2), 2);
}

// ------------------------------------------------------------ Adversary ----

TEST(DlruAdversary, StructureMatchesAppendixA) {
  const uint32_t n = 4;
  const uint64_t delta = 2;
  const int j = 3, k = 8;
  auto adv = workload::MakeDlruAdversary(n, delta, j, k);
  EXPECT_EQ(adv.instance.num_colors(), n / 2 + 1);
  EXPECT_TRUE(adv.instance.IsRateLimited());
  EXPECT_TRUE(adv.instance.DelayBoundsArePowersOfTwo());
  // Job counts: 2^k long + (n/2) * delta * 2^{k-j} short.
  const uint64_t expected =
      (uint64_t{1} << k) + (n / 2) * delta * (uint64_t{1} << (k - j));
  EXPECT_EQ(adv.instance.num_jobs(), expected);
}

TEST(DlruAdversary, OffScheduleValidatesWithClosedFormCost) {
  const uint32_t n = 4;
  const uint64_t delta = 2;
  const int j = 3, k = 8;
  auto adv = workload::MakeDlruAdversary(n, delta, j, k);
  Schedule off = workload::MakeDlruAdversaryOffSchedule(adv);
  auto v = off.Validate(adv.instance);
  ASSERT_TRUE(v.ok) << v.error;
  // Paper: OFF pays Δ (one reconfiguration) + 2^{k-j-1} n Δ (all short-term
  // jobs dropped).
  CostModel model{delta};
  EXPECT_EQ(v.cost.reconfigurations, 1u);
  EXPECT_EQ(v.cost.drops, (uint64_t{1} << (k - j - 1)) * n * delta);
  EXPECT_EQ(v.cost.total(model),
            delta + (uint64_t{1} << (k - j - 1)) * n * delta);
}

TEST(DlruAdversary, RejectsBadParameters) {
  // 2^{j+1} > n*delta violated: j=1, n=4, delta=2 -> 4 !> 8.
  EXPECT_DEATH(workload::MakeDlruAdversary(4, 2, 1, 8), "2\\^");
}

TEST(EdfAdversary, StructureMatchesAppendixB) {
  const uint32_t n = 4;
  const uint64_t delta = 5;
  const int j = 3, k = 7;
  auto adv = workload::MakeEdfAdversary(n, delta, j, k);
  EXPECT_EQ(adv.instance.num_colors(), n / 2 + 1);
  EXPECT_TRUE(adv.instance.IsRateLimited());
  // Long color p has 2^{k+p-1} jobs at round 0.
  for (uint32_t p = 0; p < n / 2; ++p) {
    EXPECT_EQ(adv.instance.jobs_per_color()[adv.long_colors[p]],
              uint64_t{1} << (k + static_cast<int>(p) - 1));
  }
}

TEST(EdfAdversary, OffScheduleValidatesWithClosedFormCost) {
  const uint32_t n = 4;
  const uint64_t delta = 5;
  const int j = 3, k = 7;
  auto adv = workload::MakeEdfAdversary(n, delta, j, k);
  Schedule off = workload::MakeEdfAdversaryOffSchedule(adv);
  auto v = off.Validate(adv.instance);
  ASSERT_TRUE(v.ok) << v.error;
  // Paper: OFF executes everything at reconfiguration cost (n/2 + 1) Δ.
  CostModel model{delta};
  EXPECT_EQ(v.cost.drops, 0u);
  EXPECT_EQ(v.cost.reconfigurations, n / 2 + 1);
  EXPECT_EQ(v.cost.total(model), (n / 2 + 1) * delta);
}

TEST(EdfAdversary, RejectsBadParameters) {
  EXPECT_DEATH(workload::MakeEdfAdversary(4, 3, 3, 7), "delta > n");
}

// ------------------------------------------------------------ Scenarios ----

TEST(IntroScenario, BackgroundAndShortJobsPresent) {
  workload::IntroScenarioOptions options;
  Instance inst = workload::MakeIntroScenario(options);
  ASSERT_EQ(inst.num_colors(),
            static_cast<size_t>(options.num_short_colors) + 1);
  const auto& per_color = inst.jobs_per_color();
  EXPECT_GT(per_color.back(), 0u);  // background jobs exist
  uint64_t short_total = 0;
  for (int s = 0; s < options.num_short_colors; ++s) short_total += per_color[s];
  EXPECT_GT(short_total, 0u);
  EXPECT_TRUE(inst.DelayBoundsArePowersOfTwo());
}

TEST(IntroScenario, LargerGapsMeanFewerShortJobs) {
  workload::IntroScenarioOptions sparse;
  sparse.gap_blocks = 8;
  workload::IntroScenarioOptions dense;
  dense.gap_blocks = 1;
  uint64_t sparse_jobs = workload::MakeIntroScenario(sparse).num_jobs();
  uint64_t dense_jobs = workload::MakeIntroScenario(dense).num_jobs();
  EXPECT_LT(sparse_jobs, dense_jobs);
}

TEST(RouterScenario, DefaultServicesProduceTraffic) {
  workload::RouterOptions options;
  options.rounds = 256;
  Instance inst = workload::MakeRouterScenario(
      workload::DefaultRouterServices(), options);
  EXPECT_EQ(inst.num_colors(), 4u);
  for (uint64_t count : inst.jobs_per_color()) EXPECT_GT(count, 0u);
  EXPECT_EQ(inst.color_name(0), "voice");
  EXPECT_EQ(inst.delay_bound(0), 2);
}

TEST(RouterScenario, LoadOscillates) {
  workload::RouterOptions options;
  options.rounds = 512;
  options.period = 128;
  options.seed = 37;
  std::vector<workload::RouterService> services = {{"web", 16, 0.2, 8.0}};
  Instance inst = workload::MakeRouterScenario(services, options);
  // Count arrivals in first vs third quarter-period windows; sinusoidal load
  // must make them differ substantially.
  uint64_t w1 = 0, w2 = 0;
  for (Round r = 0; r < 32; ++r) w1 += inst.jobs_in_round(r).size();
  for (Round r = 64; r < 96; ++r) w2 += inst.jobs_in_round(r).size();
  EXPECT_NE(w1, w2);
}

TEST(DatacenterScenario, PhaseShiftsChangeDominantService) {
  workload::DatacenterOptions options;
  options.rounds = 512;
  options.phase_length = 128;
  options.num_services = 6;
  options.seed = 41;
  Instance inst = workload::MakeDatacenterScenario(options);
  EXPECT_EQ(inst.num_colors(), 6u);
  EXPECT_GT(inst.num_jobs(), 0u);
  // Per-phase dominant service should differ between at least two phases:
  // find the busiest color in phase 0 and phase 1 windows.
  auto busiest_in = [&](Round lo, Round hi) {
    std::vector<uint64_t> counts(inst.num_colors(), 0);
    for (Round r = lo; r < hi; ++r) {
      for (const Job& j : inst.jobs_in_round(r)) ++counts[j.color];
    }
    return static_cast<ColorId>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
  };
  // Not guaranteed for every seed, but stable for this fixed seed.
  EXPECT_NE(busiest_in(0, 128), busiest_in(256, 384));
}

TEST(Scenarios, RateLimitedVariantsAreRateLimited) {
  workload::RouterOptions router;
  router.rounds = 128;
  router.rate_limited = true;
  EXPECT_TRUE(workload::MakeRouterScenario(workload::DefaultRouterServices(),
                                           router)
                  .IsRateLimited());

  workload::DatacenterOptions dc;
  dc.rounds = 128;
  dc.rate_limited = true;
  EXPECT_TRUE(workload::MakeDatacenterScenario(dc).IsRateLimited());
}

// ------------------------------------------------- Restored source state ----
//
// Dist migration and failover ship source words between processes. A
// restore must reject state the generators never produce, even when its
// checksum is valid.

// `source`'s saved words with `patch` applied to the kTagArrivalSource
// payload ([family][cursor][family state...]) and the checksum re-sealed.
std::vector<uint64_t> PatchedSourceWords(
    const workload::ArrivalSource& source,
    const std::function<void(std::span<uint64_t>)>& patch) {
  snapshot::Writer w;
  source.SaveState(w);
  // [magic][version][tag][payload words][checksum][payload...]
  std::vector<uint64_t> words = w.words();
  EXPECT_EQ(words[2], snapshot::kTagArrivalSource);
  const std::span<uint64_t> payload(words.data() + 5, words[3]);
  patch(payload);
  words[4] = snapshot::FnvWords(payload);
  return words;
}

TEST(SourceStateDeath, RejectsStateOfAnotherFamily) {
  // Every section opens with its source's family id, and a load into a
  // source of another family aborts. That check is what keeps the retired
  // wrapper ids 7-10 reserved: no live family may ever answer to them.
  const std::vector<workload::ColorSpec> colors = {{1, 0.5}, {2, 0.7}};
  workload::PoissonOptions poisson;
  poisson.rounds = 32;
  poisson.seed = 5;
  auto source = workload::MakePoissonSource(colors, poisson);
  for (int k = 0; k < 4; ++k) source->NextRound();
  snapshot::Writer w;
  source->SaveState(w);
  workload::BurstyOptions bursty;
  bursty.rounds = 32;
  bursty.seed = 5;
  auto other = workload::MakeBurstySource(colors, bursty);
  snapshot::Reader poisson_words(w.words());
  EXPECT_DEATH(other->LoadState(poisson_words), "different generator family");

  // The same Poisson section re-sealed under the retired time-shift id.
  const std::vector<uint64_t> words =
      PatchedSourceWords(*source, [](std::span<uint64_t> payload) {
        payload[0] = 7;
      });
  auto restored = source->Clone();
  snapshot::Reader r(words);
  EXPECT_DEATH(restored->LoadState(r), "different generator family");
}

TEST(SourceStateDeath, RejectsAllZeroRngState) {
  workload::PoissonOptions gen;
  gen.rounds = 32;
  gen.seed = 5;
  auto source =
      workload::MakePoissonSource({{1, 0.5}, {2, 0.7}, {4, 0.3}}, gen);
  for (int k = 0; k < 6; ++k) source->NextRound();
  // Color 1's four xoshiro words follow color 0's.
  const std::vector<uint64_t> words =
      PatchedSourceWords(*source, [](std::span<uint64_t> payload) {
        for (size_t i = 6; i < 10; ++i) payload[i] = 0;
      });
  auto restored = source->Clone();
  snapshot::Reader r(words);
  EXPECT_DEATH(restored->LoadState(r), "all-zero");
}

TEST(SourceStateDeath, ZipfRejectsRawRowCursorOutsideTheWindow) {
  workload::ZipfOptions gen;
  gen.num_colors = 4;
  gen.delay_choices = {1, 2, 4, 8};
  gen.rounds = 40;
  gen.seed = 9;
  for (const bool rate_limited : {false, true}) {
    gen.rate_limited = rate_limited;
    auto source = workload::MakeZipfSource(gen);
    for (int k = 0; k < 5; ++k) source->NextRound();
    // Batched at cursor 5 with max D = 8, the raw rows drawn so far lie in
    // [5, 12]; unbatched, none are ever drawn ahead. The raw-row cursor
    // follows [family][cursor][4 rng words].
    const uint64_t bad = rate_limited ? 13 : 1;
    const std::vector<uint64_t> words =
        PatchedSourceWords(*source, [bad](std::span<uint64_t> payload) {
          payload[6] = bad;
        });
    auto restored = source->Clone();
    snapshot::Reader r(words);
    EXPECT_DEATH(restored->LoadState(r), "raw row");
  }
}

TEST(SourceStateDeath, MemctrlRejectsOpenRowFlagsOtherThanZeroOrOne) {
  workload::MemctrlOptions gen;
  gen.num_ranks = 1;
  gen.banks_per_rank = 2;
  gen.rounds = 64;
  gen.seed = 3;
  auto source = workload::MakeMemctrlSource(gen);
  for (int k = 0; k < 10; ++k) source->NextRound();
  // [family][cursor][2 x 4 rng words][on_ count][on_ flags...][stash_...]
  const std::vector<uint64_t> words =
      PatchedSourceWords(*source, [](std::span<uint64_t> payload) {
        ASSERT_EQ(payload[10], 2u);
        payload[11] = 2;
      });
  auto restored = source->Clone();
  snapshot::Reader r(words);
  EXPECT_DEATH(restored->LoadState(r), "open-row flag");
}

}  // namespace
}  // namespace rrs
