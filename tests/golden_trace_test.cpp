// Golden-trace regression suite: SHA-256 fingerprints of per-round
// execution timelines for the canned workload/scenarios.cpp instances,
// across every registry policy.
//
// Each (scenario, policy) run is stepped one round at a time and the
// mid-run accumulators (round, reconfigurations, drops, weighted drops,
// executions) are folded into a SHA-256 digest, followed by the final
// per-color drop vector. The digests are pinned in
// tests/golden/golden_traces.txt: any unintended change to engine phase
// order, policy decisions, cost accounting, or scenario generation shows up
// as a digest mismatch naming the exact (scenario, policy) pair.
//
// The `<scenario>/online` keys fingerprint reduce::OnlineSolver on the same
// scenarios: each round's base-color reconfigurations in order and its
// per-color execution and drop totals, then the final cost and counts.
//
// The `offline/exact` and `offline/robust` keys pin the offline search
// itself: a fixed seeded corpus of tiny instances run through SolveOptimal
// and SolveRobust under every pruning/budget/pool variant, folding the
// bracket, all five search counters, and SolveOptimal's reconstructed
// schedule. The differential suites compare these counters only across
// thread counts; these keys pin their absolute values.
//
// The `workload/<family>[-batched|-rate-limited]` keys pin the streaming
// generators themselves, over a few seeds each: every round's (round,
// color, count) runs, the SaveState words at cuts {1, 17, 64}, and the runs
// a fresh Clone emits after LoadState at each cut. `workload/fleet-lanes`
// is the exact fleet-lanes benchmark tenant shape.
//
// After an *intentional* semantics change, regenerate with:
//
//   ./rrs_golden_trace_test --regen-golden
//
// which rewrites the golden file in the source tree (path baked in via
// RRS_GOLDEN_FILE) and prints the new digests for review.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "offline/optimal.h"
#include "offline/robust_optimal.h"
#include "parallel/thread_pool.h"
#include "reduce/distribute.h"
#include "reduce/online.h"
#include "reduce/varbatch.h"
#include "sched/registry.h"
#include "snapshot/codec.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/sha256.h"
#include "workload/arrival_source.h"
#include "workload/memctrl.h"
#include "workload/scenarios.h"
#include "workload/source.h"
#include "workload/synthetic.h"
#include "workload/uncertain.h"

namespace rrs {
namespace {

std::vector<std::pair<std::string, Instance>> GoldenScenarios() {
  std::vector<std::pair<std::string, Instance>> scenarios;

  workload::RouterOptions router;
  router.rounds = 192;
  router.period = 64;
  router.seed = 7;
  scenarios.emplace_back(
      "router",
      workload::MakeRouterScenario(workload::DefaultRouterServices(), router));

  workload::DatacenterOptions datacenter;
  datacenter.rounds = 384;
  datacenter.phase_length = 128;
  datacenter.seed = 7;
  scenarios.emplace_back("datacenter",
                         workload::MakeDatacenterScenario(datacenter));
  return scenarios;
}

// Fingerprints the full per-round timeline of one policy on one instance.
std::string TraceDigest(const Instance& instance, const std::string& policy) {
  EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 3;

  auto p = MakePolicy(policy);
  RRS_CHECK(p != nullptr) << policy;
  Engine engine(instance, options);
  engine.BeginRun(*p);

  Sha256 hash;
  bool more = true;
  while (more) {
    more = engine.StepRounds(1);
    hash.UpdateU64(static_cast<uint64_t>(engine.next_round()));
    const CostBreakdown& cost = engine.run_cost();
    hash.UpdateU64(cost.reconfigurations);
    hash.UpdateU64(cost.drops);
    hash.UpdateU64(cost.weighted_drops);
    hash.UpdateU64(engine.run_executed());
  }
  RunResult result;
  engine.FinishRun(result);
  hash.UpdateU64(result.arrived);
  hash.UpdateU64(result.executed);
  for (uint64_t d : result.drops_per_color) hash.UpdateU64(d);
  return hash.FinishHex();
}

// Folds per-color (color, total) pairs in ascending color order; a color
// may repeat in `entries`.
void HashColorTotals(Sha256& hash,
                     const std::vector<std::pair<ColorId, uint64_t>>& entries) {
  std::map<ColorId, uint64_t> totals;
  for (const auto& [c, count] : entries) totals[c] += count;
  for (const auto& [c, total] : totals) {
    hash.UpdateU64(c);
    hash.UpdateU64(total);
  }
}

// Fingerprints OnlineSolver's per-round outcomes on one instance, with the
// subcolor budgets the offline pipeline's Distribute step derives.
std::string OnlineDigest(const Instance& instance) {
  EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 3;

  const std::vector<uint32_t> budgets =
      reduce::DistributeInstance(reduce::VarBatchInstance(instance).transformed)
          .subcolors_per_color;
  std::vector<reduce::OnlineSolver::ColorSpec> colors;
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    colors.push_back({instance.delay_bound(c), budgets[c]});
  }
  reduce::OnlineSolver solver(colors, options);

  Sha256 hash;
  std::vector<std::pair<ColorId, uint64_t>> arrivals;
  auto step = [&](Round k) {
    arrivals.clear();
    if (k < instance.num_request_rounds()) {
      for (const Job& job : instance.jobs_in_round(k)) {
        if (arrivals.empty() || arrivals.back().first != job.color) {
          arrivals.emplace_back(job.color, 0);
        }
        ++arrivals.back().second;
      }
    }
    const RoundOutcome& out = solver.Step(arrivals);
    hash.UpdateU64(static_cast<uint64_t>(out.round));
    for (const auto& [r, c] : out.reconfigs) {
      hash.UpdateU64(r);
      hash.UpdateU64(c);
    }
    HashColorTotals(hash, out.executions);
    HashColorTotals(hash, out.drops);
  };
  for (Round k = 0; k < instance.num_request_rounds(); ++k) step(k);
  // Drain: every arrived job is still buffered, pending, executed or dropped.
  while (solver.executed() + solver.cost().drops < solver.arrived()) {
    step(solver.current_round());
  }
  solver.Finish();
  const CostBreakdown cost = solver.cost();
  hash.UpdateU64(cost.reconfigurations);
  hash.UpdateU64(cost.drops);
  hash.UpdateU64(cost.weighted_drops);
  hash.UpdateU64(solver.executed());
  hash.UpdateU64(solver.arrived());
  return hash.FinishHex();
}

// The offline search corpus: the differential suites' tiny-instance
// palette (1-3 colors, D in {1,2,3,4,5,8}, up to 10 jobs over 7 rounds),
// weighted every third draw, with m cycling 1..3 and delta 1..4.
constexpr int kOfflineCorpusSize = 200;

struct OfflineCase {
  Instance instance;
  uint32_t m = 1;
  uint64_t delta = 1;
};

std::vector<OfflineCase> OfflineCorpus() {
  Rng rng(20261017);
  std::vector<OfflineCase> corpus;
  for (int trial = 0; trial < kOfflineCorpusSize; ++trial) {
    const bool weighted = trial % 3 == 0;
    InstanceBuilder b;
    const size_t colors = 1 + rng.NextBounded(3);
    static const Round kDelays[] = {1, 2, 3, 4, 5, 8};
    for (size_t c = 0; c < colors; ++c) {
      const Round d = kDelays[rng.NextBounded(sizeof(kDelays) / sizeof(Round))];
      b.AddColor(d, "", weighted ? 1 + rng.NextBounded(4) : 1);
    }
    const uint64_t jobs = 1 + rng.NextBounded(10);
    for (uint64_t j = 0; j < jobs; ++j) {
      b.AddJob(static_cast<ColorId>(rng.NextBounded(colors)),
               static_cast<Round>(rng.NextBounded(7)));
    }
    corpus.push_back({b.Build(), 1 + static_cast<uint32_t>(trial % 3),
                      1 + static_cast<uint64_t>(trial % 4)});
  }
  return corpus;
}

// The search variants every corpus case runs under: defaults, each prune
// knob off, a budget that exhausts mid-search, and a 2-thread pool.
template <typename Options>
std::vector<Options> SearchVariants(uint32_t m, uint64_t delta,
                                    ThreadPool& pool) {
  Options base;
  base.num_resources = m;
  base.cost_model.delta = delta;
  std::vector<Options> variants(5, base);
  variants[1].prune_bound = false;
  variants[2].prune_dominance = false;
  variants[3].max_states = 40;
  variants[4].pool = &pool;
  return variants;
}

template <typename Result>
void HashSearchResult(Sha256& hash, const Result& r) {
  hash.UpdateU64(r.exact ? 1 : 0);
  hash.UpdateU64(r.lower_bound);
  hash.UpdateU64(r.upper_bound);
  hash.UpdateU64(r.states_expanded);
  hash.UpdateU64(r.states_generated);
  hash.UpdateU64(r.pruned_bound);
  hash.UpdateU64(r.pruned_dominated);
  hash.UpdateU64(r.max_layer_width);
}

std::string ExactSearchDigest(const std::vector<OfflineCase>& corpus) {
  ThreadPool pool(2);
  Sha256 hash;
  for (const OfflineCase& c : corpus) {
    auto variants =
        SearchVariants<offline::OptimalOptions>(c.m, c.delta, pool);
    variants[0].reconstruct_schedule = true;
    for (const offline::OptimalOptions& options : variants) {
      const offline::OptimalResult r =
          offline::SolveOptimal(c.instance, options);
      HashSearchResult(hash, r);
      hash.UpdateU64(r.total_cost);
      if (!r.schedule.has_value()) continue;
      for (const ReconfigAction& a : r.schedule->reconfigs()) {
        hash.UpdateU64(static_cast<uint64_t>(a.round));
        hash.UpdateU64(a.resource);
        hash.UpdateU64(a.to);
      }
      for (const ExecAction& a : r.schedule->executions()) {
        hash.UpdateU64(static_cast<uint64_t>(a.round));
        hash.UpdateU64(a.resource);
        hash.UpdateU64(a.job);
      }
    }
  }
  return hash.FinishHex();
}

// SolveRobust on each corpus case lifted to arrival windows of width 0, 1
// and 2.
std::string RobustSearchDigest(const std::vector<OfflineCase>& corpus) {
  ThreadPool pool(2);
  Sha256 hash;
  for (const OfflineCase& c : corpus) {
    for (Round width = 0; width <= 2; ++width) {
      const auto set = workload::UncertainInstance::FromInstance(
          c.instance, width / 2, width - width / 2);
      for (const offline::OptimalOptions& options :
           SearchVariants<offline::OptimalOptions>(c.m, c.delta, pool)) {
        HashSearchResult(hash, offline::SolveRobust(set, options));
      }
    }
  }
  return hash.FinishHex();
}

// ---- Streaming generator streams ------------------------------------------

using SourceFactory =
    std::function<std::unique_ptr<workload::ArrivalSource>(uint64_t seed)>;

constexpr Round kGeneratorRounds = 96;
constexpr uint64_t kGeneratorSeeds[] = {1, 2, 3};
constexpr Round kGeneratorCuts[] = {1, 17, 64};

// Rates include a zero-rate color (no uniform drawn) and a mean-45 color
// (past the Knuth range, so the draw splits); delays include 3 and 5, whose
// batch windows are not power-of-two aligned.
std::vector<workload::ColorSpec> GeneratorColors() {
  return {{1, 0.3}, {2, 0.0}, {3, 1.7}, {4, 0.8},
          {5, 2.5}, {8, 45.0}, {16, 0.5}};
}

// Folds rounds [source.cursor(), num_request_rounds()) as (round, color,
// count) runs.
void HashRemainingRuns(Sha256& hash, workload::ArrivalSource& source) {
  while (source.cursor() < source.num_request_rounds()) {
    const Round k = source.cursor();
    for (const auto& [c, count] : source.NextRound()) {
      hash.UpdateU64(static_cast<uint64_t>(k));
      hash.UpdateU64(c);
      hash.UpdateU64(count);
    }
  }
}

std::string GeneratorDigest(const SourceFactory& make) {
  Sha256 hash;
  snapshot::Writer w;
  for (const uint64_t seed : kGeneratorSeeds) {
    std::unique_ptr<workload::ArrivalSource> source = make(seed);
    hash.UpdateU64(static_cast<uint64_t>(source->num_request_rounds()));
    hash.UpdateU64(static_cast<uint64_t>(source->horizon()));
    for (ColorId c = 0; c < source->shape().num_colors(); ++c) {
      hash.UpdateU64(source->max_backlog(c));
    }
    HashRemainingRuns(hash, *source);
    for (const Round cut : kGeneratorCuts) {
      if (cut > source->num_request_rounds()) continue;
      source->Reset();
      while (source->cursor() < cut) source->NextRound();
      w.Clear();
      source->SaveState(w);
      for (const uint64_t word : w.words()) hash.UpdateU64(word);
      std::unique_ptr<workload::ArrivalSource> clone = source->Clone();
      snapshot::Reader r(w.words());
      clone->LoadState(r);
      RRS_CHECK(r.AtEnd());
      HashRemainingRuns(hash, *clone);
    }
  }
  return hash.FinishHex();
}

// Keys `workload/<family>[-batched|-rate-limited]`.
std::map<std::string, SourceFactory> GeneratorFactories() {
  std::map<std::string, SourceFactory> factories;
  for (const int mode : {0, 1, 2}) {
    const bool batched = mode == 1;
    const bool rate_limited = mode == 2;
    const std::string suffix =
        mode == 0 ? "" : (batched ? "-batched" : "-rate-limited");
    if (!batched) {
      factories["workload/poisson" + suffix] = [=](uint64_t seed) {
        workload::PoissonOptions options;
        options.rounds = kGeneratorRounds;
        options.rate_limited = rate_limited;
        options.seed = seed;
        return workload::MakePoissonSource(GeneratorColors(), options);
      };
      factories["workload/bursty" + suffix] = [=](uint64_t seed) {
        workload::BurstyOptions options;
        options.rounds = kGeneratorRounds;
        options.p_on_to_off = 0.2;
        options.p_off_to_on = 0.3;
        options.rate_limited = rate_limited;
        options.seed = seed;
        return workload::MakeBurstySource(GeneratorColors(), options);
      };
      factories["workload/zipf" + suffix] = [=](uint64_t seed) {
        workload::ZipfOptions options;
        options.num_colors = 7;
        options.delay_choices = {1, 3, 4, 8, 5};
        options.jobs_per_round = 3.5;
        options.zipf_exponent = 0.9;
        options.rounds = kGeneratorRounds;
        options.rate_limited = rate_limited;
        options.seed = seed;
        return workload::MakeZipfSource(options);
      };
    }
    factories["workload/memctrl" + suffix] = [=](uint64_t seed) {
      workload::MemctrlOptions options;
      options.num_ranks = 2;
      options.banks_per_rank = 3;
      options.delay_choices = {3, 4, 8};
      options.rounds = kGeneratorRounds;
      options.refresh_period = 32;
      options.refresh_length = 4;
      options.batched = batched;
      options.rate_limited = rate_limited;
      options.seed = seed;
      return workload::MakeMemctrlSource(options);
    };
  }
  // The fleet-lanes benchmark tenant: 16 colors, delays 1..32 cycled, rate
  // 0.5, rate-limited, 128 request rounds.
  factories["workload/fleet-lanes"] = [](uint64_t seed) {
    const Round delays[] = {1, 2, 4, 8, 16, 32};
    std::vector<workload::ColorSpec> colors;
    for (size_t c = 0; c < 16; ++c) colors.push_back({delays[c % 6], 0.5});
    workload::PoissonOptions options;
    options.rounds = 128;
    options.rate_limited = true;
    options.seed = seed;
    return workload::MakePoissonSource(colors, options);
  };
  return factories;
}

// All digests, in deterministic order.
std::map<std::string, std::string> ComputeAllDigests() {
  std::map<std::string, std::string> digests;
  for (const auto& [scenario, instance] : GoldenScenarios()) {
    for (const std::string& policy : PolicyNames()) {
      digests[scenario + "/" + policy] = TraceDigest(instance, policy);
    }
    digests[scenario + "/online"] = OnlineDigest(instance);
  }
  const std::vector<OfflineCase> corpus = OfflineCorpus();
  digests["offline/exact"] = ExactSearchDigest(corpus);
  digests["offline/robust"] = RobustSearchDigest(corpus);
  for (const auto& [key, make] : GeneratorFactories()) {
    digests[key] = GeneratorDigest(make);
  }
  return digests;
}

std::map<std::string, std::string> LoadGoldenFile(const std::string& path) {
  std::map<std::string, std::string> golden;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, digest;
    fields >> key >> digest;
    if (!key.empty() && !digest.empty()) golden[key] = digest;
  }
  return golden;
}

TEST(GoldenTrace, EveryScenarioPolicyTimelineMatchesGolden) {
  const std::map<std::string, std::string> golden =
      LoadGoldenFile(RRS_GOLDEN_FILE);
  ASSERT_FALSE(golden.empty())
      << "golden file missing or empty: " << RRS_GOLDEN_FILE
      << " — regenerate with ./rrs_golden_trace_test --regen-golden";

  const std::map<std::string, std::string> got = ComputeAllDigests();
  // Every computed digest must be pinned, and every pin must still exist
  // (a dropped policy or scenario is as much a regression as a changed one).
  EXPECT_EQ(got.size(), golden.size());
  for (const auto& [key, digest] : got) {
    auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << key << " has no golden digest — if the new "
                    << "scenario/policy is intentional, regenerate with "
                    << "--regen-golden";
      continue;
    }
    EXPECT_EQ(digest, it->second)
        << key << " timeline changed — if intentional, regenerate with "
        << "./rrs_golden_trace_test --regen-golden";
  }
}

TEST(GoldenTrace, DigestIsDeterministicAcrossRuns) {
  const auto scenarios = GoldenScenarios();
  const std::string a = TraceDigest(scenarios[0].second, "dlru-edf");
  const std::string b = TraceDigest(scenarios[0].second, "dlru-edf");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 64u);
}

int RegenGolden() {
  const std::map<std::string, std::string> digests = ComputeAllDigests();
  std::ofstream out(RRS_GOLDEN_FILE, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", RRS_GOLDEN_FILE);
    return 1;
  }
  out << "# SHA-256 digests of per-round execution timelines, one line per\n"
         "# <scenario>/<policy>, plus the offline search corpus digests and\n"
         "# the workload/<family> generator stream digests.\n"
         "# Regenerate after intentional semantics changes with:\n"
         "# ./rrs_golden_trace_test --regen-golden\n";
  for (const auto& [key, digest] : digests) {
    out << key << " " << digest << "\n";
    std::printf("%s %s\n", key.c_str(), digest.c_str());
  }
  std::printf("wrote %zu digests to %s\n", digests.size(), RRS_GOLDEN_FILE);
  return 0;
}

}  // namespace
}  // namespace rrs

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--regen-golden") == 0) {
      return rrs::RegenGolden();
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
