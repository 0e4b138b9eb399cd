// The experiment suite: one function per experiment of DESIGN.md §4, each
// returning a printable/CSV-able Table. The paper (IPPS 2007) has no
// empirical tables or figures — its evaluation is analytic (Theorems 1-3,
// Lemmas 3.1-3.5, Appendices A and B) — so each experiment here turns one
// analytic claim into a measured table. run_experiments prints them through
// analysis::ExperimentSuite(); tests call them directly and assert the
// claims.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "util/table.h"

namespace rrs {
namespace analysis {

// ---- E1: Appendix A — ΔLRU is not resource competitive --------------------
// Sweeps the short-term delay exponent j (k = j + k_offset) and reports the
// certified ratio cost(ΔLRU, n) / cost(handmade OFF, 1 resource) against the
// paper's asymptotic prediction 2^{j+1} / (nΔ). Claim: ratio grows ~2x per
// j step, i.e. ΔLRU is not constant-competitive at any resource advantage.
struct E1Params {
  uint32_t n = 4;
  uint64_t delta = 2;
  int j_min = 3;
  int j_max = 9;
  int k_offset = 4;  // k = j + k_offset
};
Table RunE1DlruAdversary(const E1Params& params);

// ---- E2: Appendix B — EDF is not resource competitive ---------------------
// Sweeps k (fixed j) and reports cost(EDF, n) / cost(handmade OFF, 1
// resource) against the prediction 2^{k-j-1} / (n/2 + 1). Claim: ratio grows
// ~2x per k step (thrashing).
struct E2Params {
  uint32_t n = 4;
  uint64_t delta = 5;
  int j = 3;
  int k_min = 5;
  int k_max = 10;
};
Table RunE2EdfAdversary(const E2Params& params);

// ---- E3: Theorem 1 — ΔLRU-EDF is resource competitive ---------------------
// Random rate-limited batched instances small enough for the exact offline
// solver; reports the mean/max exact competitive ratio per instance scale.
// Claim: the max ratio stays bounded by a constant as the input grows.
struct E3Params {
  uint32_t n = 8;   // online resources
  uint32_t m = 1;   // offline resources
  uint64_t delta = 2;
  std::vector<Round> delays = {1, 2, 4};  // one color per delay bound
  double rate = 0.4;                      // per-color mean jobs/round
  std::vector<Round> rounds_list = {8, 16, 32};
  int num_seeds = 50;
  uint64_t seed = 7;
  uint64_t max_states = 4'000'000;
};
Table RunE3CompetitiveSmall(const E3Params& params);

// ---- E4: resource augmentation sweep ---------------------------------------
// Full pipeline cost vs the certified OPT bracket [LowerBound, Clairvoyant]
// as the resource advantage n/m grows. Claim: the ratio falls steeply with
// the first doublings of n and flattens to a constant.
struct E4Params {
  std::vector<uint32_t> ns = {4, 8, 16, 32, 64};
  uint32_t m = 2;
  uint64_t delta = 8;
  Round rounds = 2048;
  uint64_t seed = 11;
};
Table RunE4Augmentation(const E4Params& params);

// ---- E5: Theorems 2-3 — reduction overhead ---------------------------------
// On each workload family: direct ΔLRU-EDF run (no guarantees off the
// rate-limited case) vs the guaranteed VarBatch∘Distribute pipeline, both
// against the certified lower bound. Claim: the pipeline costs a constant
// factor over direct.
struct E5Params {
  uint32_t n = 8;
  uint32_t m = 2;
  uint64_t delta = 4;
  Round rounds = 1024;
  uint64_t seed = 3;
};
Table RunE5Reductions(const E5Params& params);

// ---- E6: introduction scenario — thrash vs underutilize -------------------
// Background + intermittent short-term jobs; sweeps the burst gap. Claim:
// greedy-edf pays reconfigurations (thrashing), high-threshold lazy pays
// drops (underutilization), ΔLRU-EDF pays neither disproportionately.
struct E6Params {
  std::vector<Round> gap_blocks = {1, 2, 4, 8};
  uint32_t n = 8;
  uint64_t delta = 8;
  uint64_t seed = 5;
};
Table RunE6IntroScenario(const E6Params& params);

// ---- E7: the Lemma 3.2 drop chain ------------------------------------------
// Measures EligibleDrop_{ΔLRU-EDF(n)}(σ) <= Drop_{DS-Seq-EDF(m)}(α)
// <= Drop_{Par-EDF(m)}(α) with m = n/4 and α = the eligible-job subsequence.
// Claim: zero violations across seeds.
struct E7Params {
  uint32_t n = 8;  // m = n / 4 per Lemma 3.10
  uint64_t delta = 3;
  Round rounds = 64;
  double rate = 0.8;
  int num_seeds = 30;
  uint64_t seed = 17;
};
Table RunE7DropChain(const E7Params& params);

// ---- E8: Lemmas 3.3/3.4 — epoch bounds -------------------------------------
// Measures ReconfigCost vs 4·numEpochs·Δ and IneligibleDrop vs numEpochs·Δ
// across Δ. Claim: both bounds hold, with measurable slack.
struct E8Params {
  std::vector<uint64_t> deltas = {2, 4, 8, 16};
  uint32_t n = 8;
  Round rounds = 4096;
  double rate = 1.0;
  uint64_t seed = 23;
};
Table RunE8EpochBounds(const E8Params& params);

// ---- E10: design ablations --------------------------------------------------
// ΔLRU-EDF variants (LRU/EDF split, exit policy, replication) on bursty and
// router workloads through the full pipeline. Claim: the paper's n/4 + n/4
// replicated split is on the Pareto frontier.
struct E10Params {
  uint32_t n = 16;
  uint64_t delta = 8;
  Round rounds = 2048;
  uint64_t seed = 29;
};
Table RunE10Ablations(const E10Params& params);

// ---- E13: variable drop costs (extension) ----------------------------------
// The [Δ | c_ℓ | D_ℓ | ·] family of the authors' earlier work, supported by
// the engine as an extension: a premium service (high drop cost) shares the
// pool with best-effort traffic. Claim: the weight-aware baseline and
// ΔLRU-EDF keep the premium drop cost low where weight-blind greedy pays
// heavily; the certified weighted lower bound anchors the comparison.
struct E13Params {
  uint32_t n = 4;  // fewer resources than services: contention is forced
  uint32_t m = 2;
  uint64_t delta = 6;
  uint64_t premium_weight = 8;
  Round rounds = 1024;
  uint64_t seed = 47;
};
Table RunE13WeightedDrops(const E13Params& params);

// ---- E14: the value of lookahead (future-work probe) ----------------------
// The paper's algorithm is fully online. Sweeping a semi-online greedy's
// lookahead window W quantifies what the online setting costs: W = 0 is
// pending-only greedy; large W approaches clairvoyance. Claim: cost falls
// with W with diminishing returns, and the fully-online ΔLRU-EDF pipeline
// sits within the spread.
struct E14Params {
  std::vector<Round> windows = {0, 1, 2, 4, 8, 16, 32};
  uint32_t n = 8;
  uint32_t m = 2;
  uint64_t delta = 8;
  Round rounds = 1024;
  uint64_t seed = 53;
};
Table RunE14Lookahead(const E14Params& params);

// ---- E15: the proof pipeline's constants, measured -------------------------
// Theorem 3's proof routes OPT(I) through Lemma 5.3 (Punctualize, 7x
// resources) and Lemma 4.1 (Aggregate, 3x more) to obtain an offline
// schedule on the fully transformed instance, then invokes Theorem 1. This
// experiment executes that exact chain on random instances and reports the
// actual constants: offline-chain cost / OPT (the reductions' blowup) and
// online pipeline cost / OPT (the end-to-end ratio).
struct E15Params {
  std::vector<Round> rounds_list = {8, 16, 24};
  int num_seeds = 25;
  uint32_t n = 8;       // online resources for the pipeline
  uint64_t delta = 2;
  double rate = 0.5;
  uint64_t seed = 59;
  uint64_t max_states = 4'000'000;
};
Table RunE15ProofPipeline(const E15Params& params);

}  // namespace analysis
}  // namespace rrs
