// Test battery for the interval-uncertainty robust solver
// (offline/robust_optimal + offline/interval_state + workload/uncertain).
// The center of gravity of the feature: dominance merging must never prune a
// feasible concrete schedule, so the suite pins
//   - zero-width windows: bit-exact bracket agreement with SolveOptimal on
//     the same 500-instance corpus the concrete differential suite uses;
//   - sampled-trace soundness: hundreds of concrete window instantiations
//     per windowed set, every one's exact OPT inside the robust bracket;
//   - interval-dominance properties: containment prunes, never the reverse,
//     differential against a dense reference predicate, plus a golden
//     regression corpus pinning verdicts and the packed word layout;
//   - bit-identical results across 0/1/2/8 threads and budget exhaustion.
//
// Also built under ASan+UBSan (rrs_offline_robust_sanitize_test, -L
// sanitize) and TSan (offline_robust_tsan, -L tsan); higher fuzz tiers run
// via RRS_FUZZ_ITERS (-C nightly -L nightly).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/scope.h"
#include "offline/interval_state.h"
#include "offline/lower_bound.h"
#include "offline/optimal.h"
#include "offline/robust_optimal.h"
#include "parallel/thread_pool.h"
#include "util/rng.h"
#include "workload/arrival_source.h"
#include "workload/uncertain.h"

namespace rrs {
namespace {

// Iteration tier, like snapshot_fuzz_test: default suits tier-1; sanitize
// and nightly registrations raise it via RRS_FUZZ_ITERS.
int FuzzIters() {
  const char* env = std::getenv("RRS_FUZZ_ITERS");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 12;
}

// Exactly the concrete differential suite's tiny-instance generator (same
// palette, same draw order), so the zero-width differential below replays
// the identical 500-instance corpus.
Instance TinyInstance(Rng& rng, bool weighted) {
  InstanceBuilder b;
  const size_t colors = 1 + rng.NextBounded(3);
  static const Round kDelays[] = {1, 2, 3, 4, 5, 8};
  for (size_t c = 0; c < colors; ++c) {
    Round d = kDelays[rng.NextBounded(sizeof(kDelays) / sizeof(Round))];
    uint64_t w = weighted ? 1 + rng.NextBounded(4) : 1;
    b.AddColor(d, "", w);
  }
  const uint64_t jobs = 1 + rng.NextBounded(10);
  for (uint64_t j = 0; j < jobs; ++j) {
    b.AddJob(static_cast<ColorId>(rng.NextBounded(colors)),
             static_cast<Round>(rng.NextBounded(7)));
  }
  return b.Build();
}

// Tiny windowed set: like TinyInstance but each job gets a window of width
// 0-3 — small enough that the pessimistic duplication stays solvable.
workload::UncertainInstance TinyWindowedSet(Rng& rng, bool weighted) {
  workload::UncertainInstance set;
  const size_t colors = 1 + rng.NextBounded(3);
  static const Round kDelays[] = {1, 2, 3, 4, 5, 8};
  for (size_t c = 0; c < colors; ++c) {
    Round d = kDelays[rng.NextBounded(sizeof(kDelays) / sizeof(Round))];
    uint64_t w = weighted ? 1 + rng.NextBounded(4) : 1;
    set.AddColor(d, "", w);
  }
  const uint64_t jobs = 1 + rng.NextBounded(7);
  for (uint64_t j = 0; j < jobs; ++j) {
    const Round lo = static_cast<Round>(rng.NextBounded(6));
    const Round width = static_cast<Round>(rng.NextBounded(4));
    set.AddJob(static_cast<ColorId>(rng.NextBounded(colors)), lo, lo + width);
  }
  return set;
}

offline::OptimalOptions RobustBase(uint32_t m, uint64_t delta) {
  offline::OptimalOptions options;
  options.num_resources = m;
  options.cost_model.delta = delta;
  return options;
}

offline::OptimalOptions OptimalBase(uint32_t m, uint64_t delta) {
  offline::OptimalOptions options;
  options.num_resources = m;
  options.cost_model.delta = delta;
  return options;
}

// Solves sampled concrete traces (memoized on the pinned arrivals, so
// repeated draws cost one solve) and checks each exact OPT lands inside the
// robust bracket. Returns the number of *distinct* traces checked.
int CheckSampledSoundness(const workload::UncertainInstance& set,
                          const offline::RobustResult& robust, uint32_t m,
                          uint64_t delta, int samples, uint64_t seed_base) {
  std::map<std::vector<std::pair<ColorId, Round>>, uint64_t> memo;
  for (int s = 0; s < samples; ++s) {
    const Instance trace = set.Sample(seed_base + static_cast<uint64_t>(s));
    std::vector<std::pair<ColorId, Round>> key;
    key.reserve(trace.num_jobs());
    for (const Job& job : trace.jobs()) key.emplace_back(job.color, job.arrival);
    auto [it, inserted] = memo.try_emplace(std::move(key), 0);
    if (inserted) {
      const auto exact = offline::SolveOptimal(trace, OptimalBase(m, delta));
      EXPECT_TRUE(exact.exact);
      it->second = exact.total_cost;
    }
    EXPECT_LE(robust.lower_bound, it->second)
        << "sample " << s << " fell below the robust bracket";
    EXPECT_GE(robust.upper_bound, it->second)
        << "sample " << s << " exceeded the robust bracket";
  }
  return static_cast<int>(memo.size());
}

TEST(OfflineRobust, ZeroWidthMatchesSolveOptimalOnDifferentialCorpus) {
  // The acceptance differential: lift every instance of the concrete
  // corpus (same seed, same draws) into a zero-width window set; the robust
  // bracket must equal [OPT, OPT] bit-exactly.
  Rng rng(20240601);
  for (int trial = 0; trial < 500; ++trial) {
    const bool weighted = trial % 3 == 0;
    Instance inst = TinyInstance(rng, weighted);
    const uint32_t m = 1 + static_cast<uint32_t>(trial % 2);
    const uint64_t delta = 1 + trial % 4;

    const auto exact = offline::SolveOptimal(inst, OptimalBase(m, delta));
    ASSERT_TRUE(exact.exact) << "trial " << trial;

    const auto set = workload::UncertainInstance::FromInstance(inst, 0, 0);
    ASSERT_TRUE(set.IsZeroWidth());
    const auto robust = offline::SolveRobust(set, RobustBase(m, delta));
    ASSERT_TRUE(robust.exact) << "trial " << trial;
    EXPECT_EQ(robust.lower_bound, exact.total_cost)
        << "trial " << trial << " m=" << m << " delta=" << delta << "\n"
        << inst.Summary();
    EXPECT_EQ(robust.upper_bound, exact.total_cost)
        << "trial " << trial << " m=" << m << " delta=" << delta;
    // Zero width means the dominance rule degenerates to span equality,
    // which interning already collapses: nothing may be containment-pruned.
    EXPECT_EQ(robust.pruned_dominated, 0u) << "trial " << trial;
  }
}

TEST(OfflineRobust, SampledTracesLandInsideRobustBracket) {
  // The soundness suite: >= 300 concrete window instantiations per windowed
  // set, each exact OPT inside the certified bracket.
  const int sets = std::max(12, FuzzIters());
  Rng rng(20250809);
  int distinct_total = 0;
  for (int trial = 0; trial < sets; ++trial) {
    const auto set = TinyWindowedSet(rng, trial % 3 == 0);
    const uint32_t m = 1 + static_cast<uint32_t>(trial % 2);
    const uint64_t delta = 1 + trial % 4;
    const auto robust = offline::SolveRobust(set, RobustBase(m, delta));
    ASSERT_TRUE(robust.exact) << "trial " << trial;
    EXPECT_LE(robust.lower_bound, robust.upper_bound);
    distinct_total += CheckSampledSoundness(
        set, robust, m, delta, /*samples=*/300,
        /*seed_base=*/0x5eed0000u + static_cast<uint64_t>(trial) * 1000);
  }
  EXPECT_GE(distinct_total, sets);  // windows of width 0 still give 1 trace
}

TEST(OfflineRobust, WidenedWindowsStillBracketTheBaseTrace) {
  // FromInstance(inst, 1, 1) includes inst itself as a member trace, so its
  // exact OPT must sit inside the widened bracket.
  Rng rng(20250810);
  for (int trial = 0; trial < 30; ++trial) {
    Instance inst = TinyInstance(rng, trial % 2 == 0);
    const uint32_t m = 1 + static_cast<uint32_t>(trial % 2);
    const auto exact = offline::SolveOptimal(inst, OptimalBase(m, 2));
    ASSERT_TRUE(exact.exact);

    const auto set = workload::UncertainInstance::FromInstance(inst, 1, 1);
    const auto robust = offline::SolveRobust(set, RobustBase(m, 2));
    ASSERT_TRUE(robust.exact) << "trial " << trial;
    EXPECT_LE(robust.lower_bound, exact.total_cost) << "trial " << trial;
    EXPECT_GE(robust.upper_bound, exact.total_cost) << "trial " << trial;
  }
}

TEST(OfflineRobust, BitIdenticalAcrossThreadCounts) {
  // Every result field must be identical for pool == nullptr and pools of
  // 1/2/8 threads; half the trials squeeze the budget so the exhaustion
  // path (frontier min-reduction) is pinned too.
  ThreadPool pool1(1), pool2(2), pool8(8);
  ThreadPool* pools[] = {nullptr, &pool1, &pool2, &pool8};

  Rng rng(20250811);
  for (int trial = 0; trial < 40; ++trial) {
    const auto set = TinyWindowedSet(rng, trial % 2 == 0);
    const uint32_t m = 1 + static_cast<uint32_t>(trial % 2);
    auto options = RobustBase(m, 2);
    if (trial % 2 == 1) options.max_states = 8;

    options.pool = nullptr;
    const auto base = offline::SolveRobust(set, options);
    for (ThreadPool* pool : pools) {
      options.pool = pool;
      const auto other = offline::SolveRobust(set, options);
      EXPECT_EQ(base.exact, other.exact) << "trial " << trial;
      EXPECT_EQ(base.lower_bound, other.lower_bound) << "trial " << trial;
      EXPECT_EQ(base.upper_bound, other.upper_bound) << "trial " << trial;
      EXPECT_EQ(base.states_expanded, other.states_expanded)
          << "trial " << trial;
      EXPECT_EQ(base.states_generated, other.states_generated)
          << "trial " << trial;
      EXPECT_EQ(base.pruned_bound, other.pruned_bound) << "trial " << trial;
      EXPECT_EQ(base.pruned_dominated, other.pruned_dominated)
          << "trial " << trial;
      EXPECT_EQ(base.max_layer_width, other.max_layer_width)
          << "trial " << trial;
    }
  }
}

TEST(OfflineRobust, ExhaustionBracketStaysSound) {
  // Budget exhaustion must degrade to a wider bracket, never an invalid
  // one: sampled exact optima stay inside even at max_states = 1.
  Rng rng(20250812);
  int exhausted_checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto set = TinyWindowedSet(rng, trial % 2 == 0);
    const uint32_t m = 1 + static_cast<uint32_t>(trial % 2);
    const uint64_t delta = 2;
    auto options = RobustBase(m, delta);
    options.max_states = 1 + trial % 6;
    const auto bracket = offline::SolveRobust(set, options);
    if (bracket.exact) continue;
    EXPECT_LE(bracket.lower_bound, bracket.upper_bound) << "trial " << trial;
    CheckSampledSoundness(set, bracket, m, delta, /*samples=*/40,
                          /*seed_base=*/0xabc000u + trial);
    ++exhausted_checked;
  }
  EXPECT_GE(exhausted_checked, 10);
}

TEST(OfflineRobust, PruningAblationsKeepBracketsSound) {
  // Soundness may not depend on either pruning rule; all four combinations
  // must bracket every sampled optimum (tightness may differ).
  Rng rng(20250813);
  for (int trial = 0; trial < 16; ++trial) {
    const auto set = TinyWindowedSet(rng, trial % 2 == 0);
    const uint32_t m = 1 + static_cast<uint32_t>(trial % 2);
    const uint64_t delta = 1 + trial % 3;
    auto options = RobustBase(m, delta);
    for (bool bound : {false, true}) {
      for (bool dominance : {false, true}) {
        options.prune_bound = bound;
        options.prune_dominance = dominance;
        const auto robust = offline::SolveRobust(set, options);
        ASSERT_TRUE(robust.exact) << "trial " << trial;
        CheckSampledSoundness(set, robust, m, delta, /*samples=*/25,
                              /*seed_base=*/0xd00d00u + trial);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Interval-state predicates: property/fuzz + regression corpus.
// ---------------------------------------------------------------------------

using Buckets = std::vector<offline::IntervalBucket>;

// Dense reference for the containment predicate: cumulative arrays per
// horizon, no merge-walk cleverness. The packed implementation must agree.
bool RefProfileContains(const Buckets& a, const Buckets& b) {
  uint32_t max_rel = 1;
  for (const auto& x : a) max_rel = std::max(max_rel, x.rel);
  for (const auto& x : b) max_rel = std::max(max_rel, x.rel);
  for (uint32_t t = 1; t <= max_rel; ++t) {
    uint64_t a_lo = 0, a_hi = 0, b_lo = 0, b_hi = 0;
    for (const auto& x : a) {
      if (x.rel <= t) {
        a_lo += x.lo;
        a_hi += x.hi;
      }
    }
    for (const auto& x : b) {
      if (x.rel <= t) {
        b_lo += x.lo;
        b_hi += x.hi;
      }
    }
    if (a_lo > b_lo || b_hi > a_hi) return false;
  }
  return true;
}

Buckets RandomProfile(Rng& rng) {
  Buckets out;
  const uint32_t len = static_cast<uint32_t>(rng.NextBounded(4));
  uint32_t rel = 0;
  for (uint32_t i = 0; i < len; ++i) {
    rel += 1 + static_cast<uint32_t>(rng.NextBounded(3));
    offline::IntervalBucket bucket;
    bucket.rel = rel;
    bucket.hi = 1 + static_cast<uint32_t>(rng.NextBounded(5));
    bucket.lo = static_cast<uint32_t>(rng.NextBounded(bucket.hi + 1));
    out.push_back(bucket);
  }
  return out;
}

std::vector<uint32_t> RandomConfig(Rng& rng, uint32_t m, uint32_t nc) {
  std::vector<uint32_t> cfg;
  for (uint32_t i = 0; i < m; ++i) {
    cfg.push_back(static_cast<uint32_t>(rng.NextBounded(nc + 1)));
  }
  std::sort(cfg.begin(), cfg.end());
  return cfg;
}

TEST(IntervalDominance, ContainedStatesArePrunedAndNeverTheReverse) {
  // Derive B from A by tightening each bucket within A's [lo, hi] — by
  // construction A contains B, so A must dominate B, and B may dominate A
  // only when nothing actually differs.
  Rng rng(20250814);
  const int iters = 40 * FuzzIters();
  for (int it = 0; it < iters; ++it) {
    const uint32_t m = 1 + static_cast<uint32_t>(rng.NextBounded(3));
    const uint32_t nc = 1 + static_cast<uint32_t>(rng.NextBounded(3));
    const auto cfg = RandomConfig(rng, m, nc);
    std::vector<Buckets> a_profiles, b_profiles;
    for (uint32_t c = 0; c < nc; ++c) {
      const Buckets a = RandomProfile(rng);
      Buckets b;
      for (const offline::IntervalBucket& x : a) {
        offline::IntervalBucket y = x;
        y.lo = x.lo + static_cast<uint32_t>(rng.NextBounded(x.hi - x.lo + 1));
        y.hi = y.lo + static_cast<uint32_t>(rng.NextBounded(x.hi - y.lo + 1));
        if (y.hi == 0) continue;  // tightened to empty: drop the bucket
        b.push_back(y);
      }
      a_profiles.push_back(a);
      b_profiles.push_back(b);
    }
    const auto a_span = offline::EncodeIntervalState(cfg, a_profiles);
    const auto b_span = offline::EncodeIntervalState(cfg, b_profiles);
    const uint64_t a_lo = rng.NextBounded(20);
    const uint64_t a_hi = a_lo + rng.NextBounded(20);
    const uint64_t b_lo = a_lo + rng.NextBounded(a_hi - a_lo + 1);
    const uint64_t b_hi = b_lo + rng.NextBounded(a_hi - b_lo + 1);

    EXPECT_TRUE(offline::IntervalStateDominates(a_span, a_lo, a_hi, b_span,
                                                b_lo, b_hi, m, nc))
        << "iter " << it;
    const bool identical =
        a_span == b_span && a_lo == b_lo && a_hi == b_hi;
    if (!identical) {
      // The reverse may hold only if B's envelopes and costs also bracket
      // A's — which with B ⊆ A forces equality. Never on a strict subset.
      EXPECT_FALSE(offline::IntervalStateDominates(b_span, b_lo, b_hi, a_span,
                                                   a_lo, a_hi, m, nc))
          << "iter " << it;
    }
  }
}

TEST(IntervalDominance, MatchesDenseReferenceOnRandomPairs) {
  // Independent pairs: the packed merge-walk predicate must agree with the
  // dense cumulative reference everywhere, and mutual dominance must imply
  // identical states.
  Rng rng(20250815);
  const int iters = 40 * FuzzIters();
  for (int it = 0; it < iters; ++it) {
    const uint32_t m = 1 + static_cast<uint32_t>(rng.NextBounded(2));
    const uint32_t nc = 1 + static_cast<uint32_t>(rng.NextBounded(2));
    const auto cfg = RandomConfig(rng, m, nc);
    std::vector<Buckets> a_profiles, b_profiles;
    for (uint32_t c = 0; c < nc; ++c) {
      a_profiles.push_back(RandomProfile(rng));
      b_profiles.push_back(RandomProfile(rng));
    }
    const auto a_span = offline::EncodeIntervalState(cfg, a_profiles);
    const auto b_span = offline::EncodeIntervalState(cfg, b_profiles);
    const uint64_t a_lo = rng.NextBounded(8);
    const uint64_t a_hi = a_lo + rng.NextBounded(8);
    const uint64_t b_lo = rng.NextBounded(8);
    const uint64_t b_hi = b_lo + rng.NextBounded(8);

    bool ref_ab = a_lo <= b_lo && a_hi >= b_hi;
    bool ref_ba = b_lo <= a_lo && b_hi >= a_hi;
    for (uint32_t c = 0; c < nc; ++c) {
      ref_ab = ref_ab && RefProfileContains(a_profiles[c], b_profiles[c]);
      ref_ba = ref_ba && RefProfileContains(b_profiles[c], a_profiles[c]);
    }
    const bool got_ab = offline::IntervalStateDominates(
        a_span, a_lo, a_hi, b_span, b_lo, b_hi, m, nc);
    const bool got_ba = offline::IntervalStateDominates(
        b_span, b_lo, b_hi, a_span, a_lo, a_hi, m, nc);
    EXPECT_EQ(got_ab, ref_ab) << "iter " << it;
    EXPECT_EQ(got_ba, ref_ba) << "iter " << it;
    if (got_ab && got_ba) {
      EXPECT_EQ(a_span, b_span) << "mutual dominance on distinct spans";
      EXPECT_EQ(a_lo, b_lo);
      EXPECT_EQ(a_hi, b_hi);
    }
  }
}

TEST(IntervalDominance, RegressionCorpusPinsVerdicts) {
  // tests/golden/interval_dominance_corpus.txt: hand-built edge cases (and
  // any future counterexamples) as raw packed words. Each entry:
  //   m nc a_cost_lo a_cost_hi a_len <a words> b_cost_lo b_cost_hi b_len
  //   <b words> expect_ab expect_ba
  std::ifstream in(RRS_INTERVAL_CORPUS_FILE);
  ASSERT_TRUE(in.is_open()) << "missing " << RRS_INTERVAL_CORPUS_FILE;
  std::string line;
  int entries = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    uint32_t m = 0, nc = 0, a_len = 0, b_len = 0;
    uint64_t a_lo = 0, a_hi = 0, b_lo = 0, b_hi = 0;
    int expect_ab = 0, expect_ba = 0;
    ASSERT_TRUE(static_cast<bool>(ls >> m >> nc >> a_lo >> a_hi >> a_len))
        << "corpus entry " << entries;
    std::vector<uint32_t> a_span(a_len), b_span;
    for (uint32_t& w : a_span) ASSERT_TRUE(static_cast<bool>(ls >> w));
    ASSERT_TRUE(static_cast<bool>(ls >> b_lo >> b_hi >> b_len));
    b_span.resize(b_len);
    for (uint32_t& w : b_span) ASSERT_TRUE(static_cast<bool>(ls >> w));
    ASSERT_TRUE(static_cast<bool>(ls >> expect_ab >> expect_ba));

    EXPECT_EQ(offline::IntervalStateDominates(a_span, a_lo, a_hi, b_span,
                                              b_lo, b_hi, m, nc),
              expect_ab == 1)
        << "corpus entry " << entries << " (A->B)";
    EXPECT_EQ(offline::IntervalStateDominates(b_span, b_lo, b_hi, a_span,
                                              a_lo, a_hi, m, nc),
              expect_ba == 1)
        << "corpus entry " << entries << " (B->A)";
    ++entries;
  }
  EXPECT_GE(entries, 10);
}

TEST(IntervalDominance, PackedLayoutIsSnapshotStable) {
  // The exact word sequence is load-bearing (golden corpus entries and any
  // future on-disk states depend on it): [config m words][per color: len,
  // (rel, lo, hi) triples].
  const std::vector<uint32_t> cfg = {0, 2};  // m=2, color 0 + black (nc=2)
  std::vector<Buckets> profiles(2);
  profiles[0] = {{1, 0, 2}, {4, 1, 1}};
  profiles[1] = {};
  const auto span = offline::EncodeIntervalState(cfg, profiles);
  const std::vector<uint32_t> expected = {0, 2, 2, 1, 0, 2, 4, 1, 1, 0};
  EXPECT_EQ(span, expected);

  // And the containment predicate reads that layout: the state contains a
  // tightened copy of itself.
  std::vector<Buckets> tighter(2);
  tighter[0] = {{1, 1, 2}, {4, 1, 1}};
  tighter[1] = {};
  const auto tight_span = offline::EncodeIntervalState(cfg, tighter);
  EXPECT_TRUE(offline::IntervalStateContains(span, tight_span, 2, 2));
  EXPECT_FALSE(offline::IntervalStateContains(tight_span, span, 2, 2));
}

// ---------------------------------------------------------------------------
// Supporting pieces: envelopes, sampling, lower-bound leg, ratio, obs.
// ---------------------------------------------------------------------------

TEST(UncertainInstance, EnvelopeInstancesAnchorTheSet) {
  workload::UncertainInstance set;
  const ColorId c0 = set.AddColor(3, "a", 2);
  const ColorId c1 = set.AddColor(5, "b");
  set.AddJob(c0, 2, 2);      // forced
  set.AddJob(c0, 1, 3);      // width 2
  set.AddJobs(c1, 0, 1, 2);  // width 1, twice

  EXPECT_FALSE(set.IsZeroWidth());
  EXPECT_EQ(set.num_jobs(), 4u);
  EXPECT_EQ(set.num_request_rounds(), 4);
  EXPECT_EQ(set.horizon(), 3 + 3);  // the width-2 job of color 0

  const Instance forced = set.ForcedInstance();
  EXPECT_EQ(forced.num_jobs(), 1u);  // only the pinned job
  EXPECT_EQ(forced.num_colors(), 2u);
  EXPECT_EQ(forced.drop_cost(c0), 2u);

  const Instance pessimistic = set.PessimisticInstance();
  EXPECT_EQ(pessimistic.num_jobs(), 1u + 3u + 2u * 2u);

  // Zero-width: all three coincide in job multiset.
  const auto zero = workload::UncertainInstance::FromInstance(forced, 0, 0);
  EXPECT_TRUE(zero.IsZeroWidth());
  EXPECT_EQ(zero.ForcedInstance().num_jobs(),
            zero.PessimisticInstance().num_jobs());
}

TEST(UncertainInstance, SampleSourceMaterializesTheSampledTrace) {
  Rng rng(20250816);
  const auto set = TinyWindowedSet(rng, true);
  for (uint64_t seed : {1ull, 42ull, 999ull}) {
    const Instance direct = set.Sample(seed);
    auto source = set.SampleSource(seed);
    ASSERT_NE(source, nullptr);
    const Instance via_source = workload::Materialize(*source);
    ASSERT_EQ(direct.num_jobs(), via_source.num_jobs());
    for (JobId j = 0; j < direct.num_jobs(); ++j) {
      EXPECT_EQ(direct.job(j).color, via_source.job(j).color);
      EXPECT_EQ(direct.job(j).arrival, via_source.job(j).arrival);
    }
    // Same seed, same trace; sampling is a pure function of the seed.
    const Instance again = set.Sample(seed);
    ASSERT_EQ(direct.num_jobs(), again.num_jobs());
    for (JobId j = 0; j < direct.num_jobs(); ++j) {
      EXPECT_EQ(direct.job(j).arrival, again.job(j).arrival);
    }
    // Every sampled arrival stays inside its job's window (jobs are sorted
    // by arrival, so match on per-color counts instead of identity).
    for (const Job& job : direct.jobs()) {
      bool in_some_window = false;
      for (const workload::WindowedJob& w : set.jobs()) {
        if (w.color == job.color && w.release_lo <= job.arrival &&
            job.arrival <= w.release_hi) {
          in_some_window = true;
          break;
        }
      }
      EXPECT_TRUE(in_some_window);
    }
  }
}

TEST(OfflineRobust, RobustLowerBoundIsTheForcedInstanceBound) {
  Rng rng(20250817);
  for (int trial = 0; trial < 20; ++trial) {
    const auto set = TinyWindowedSet(rng, trial % 2 == 0);
    const uint32_t m = 1 + static_cast<uint32_t>(trial % 2);
    const CostModel model{1 + static_cast<uint64_t>(trial % 3)};
    const uint64_t robust_lb = offline::RobustLowerBound(set, m, model);
    EXPECT_EQ(robust_lb, offline::LowerBound(set.ForcedInstance(), m, model));
    // And it holds for every member trace (spot-check a few).
    for (uint64_t seed = 0; seed < 5; ++seed) {
      const auto exact =
          offline::SolveOptimal(set.Sample(seed), OptimalBase(m, model.delta));
      ASSERT_TRUE(exact.exact);
      EXPECT_LE(robust_lb, exact.total_cost) << "trial " << trial;
    }
  }
}

TEST(OfflineRobust, EnvelopeHallLegMatchesPairwiseOnEachSide) {
  // (rel, lo, hi) triples: the lo-side leg equals CapacityRelaxedDrops on
  // the (rel, lo) pairs, the hi side on the (rel, hi) pairs.
  const uint32_t triples[] = {1, 1, 3, 5, 2, 4};
  const uint32_t lo_pairs[] = {1, 1, 5, 2};
  const uint32_t hi_pairs[] = {1, 3, 5, 4};
  for (uint32_t m = 1; m <= 3; ++m) {
    EXPECT_EQ(offline::CapacityRelaxedDropsEnvelope(triples, m, false),
              offline::CapacityRelaxedDrops(lo_pairs, m));
    EXPECT_EQ(offline::CapacityRelaxedDropsEnvelope(triples, m, true),
              offline::CapacityRelaxedDrops(hi_pairs, m));
  }
  EXPECT_EQ(offline::CapacityRelaxedDropsEnvelope({}, 1, false), 0u);
  EXPECT_EQ(offline::CapacityRelaxedDropsEnvelope({}, 1, true), 0u);
}

TEST(OfflineRobust, SolverEmitsObsCounters) {
  obs::Scope scope;
  workload::UncertainInstance set;
  const ColorId c0 = set.AddColor(4);
  const ColorId c1 = set.AddColor(4);
  set.AddJobs(c0, 0, 1, 4);
  set.AddJobs(c1, 0, 0, 4);

  auto options = RobustBase(2, 1);
  options.obs_scope = &scope;
  const auto result = offline::SolveRobust(set, options);
  ASSERT_TRUE(result.exact);

  const auto values = scope.registry().Values();
  auto value_of = [&](const char* name) {
    auto it = values.find(name);
    return it == values.end() ? uint64_t{0}
                              : static_cast<uint64_t>(it->second);
  };
  EXPECT_EQ(value_of("offline.robust.solves"), 1u);
  EXPECT_EQ(value_of("offline.robust.solves_exact"), 1u);
  EXPECT_EQ(value_of("offline.robust.states_expanded"),
            result.states_expanded);
  EXPECT_EQ(value_of("offline.robust.states_generated"),
            result.states_generated);
  EXPECT_EQ(value_of("offline.robust.pruned_bound"), result.pruned_bound);
  const obs::LogHistogram* widths =
      scope.registry().FindHistogram("offline.robust.layer_width");
  ASSERT_NE(widths, nullptr);
  EXPECT_GT(widths->count(), 0u);
  EXPECT_EQ(widths->max(), result.max_layer_width);
}

}  // namespace
}  // namespace rrs
