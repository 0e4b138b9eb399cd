// The layer-synchronous branch-and-bound behind offline::SolveOptimal
// (concrete states) and offline::SolveRobust (interval states): one search,
// two state models.
//
// The search owns everything that does not depend on what a pending bucket
// means: the packed span layout and its hash, the arena-backed open-
// addressing intern store, config enumeration with its Δ·(m − overlap)
// reconfiguration cost, the admissible per-color Hall heuristic, chunked
// expansion on the pool, the 32-shard config-prefix merge with its canonical
// sort and capped dominance scan, the layer-granular budget, the frontier
// bound on exhaustion, and the obs counters. A state is
//
//   [config multiset: m sorted words, black = num_colors]
//   [per color: bucket count L, then L buckets of Model::kStride words]
//
// where a bucket's word 0 is the relative deadline (strictly ascending) and
// word 1 is the count the admissible bound reads.
//
// A Model supplies the state semantics:
//
//   using Payload = ...;                 // per-state value; Node stays 32 B
//   static constexpr uint32_t kStride;   // words per pending bucket
//   uint64_t drop_cost(uint32_t c) const;
//   static Payload Reconfigure(const Payload& from, uint32_t parent,
//                              uint64_t cost);
//   // Appends color c's child buckets — the parent's `len` buckets after
//   // `exec` earliest-deadline executions and one round of aging, plus the
//   // arrivals of round `arrive` — charging drops to `p`; returns the
//   // number of buckets appended. The root state is Advance over empty
//   // profiles with arrive = 0.
//   uint32_t Advance(uint32_t c, const uint32_t* buckets, uint32_t len,
//                    uint32_t exec, Round arrive, Payload& p,
//                    std::vector<uint32_t>& child) const;
//   static uint64_t Cost(const Payload&);    // the side the bound adds to
//   static void Merge(Payload& kept, const Payload& other);  // order-free
//   static bool GroupBefore(const Payload&, const Payload&);  // scan order
//   bool Dominates(const uint32_t* a, uint32_t alen, const Payload& pa,
//                  const uint32_t* b, uint32_t blen,
//                  const Payload& pb) const;  // same config, a before b
//
// Determinism: Merge must be a commutative, associative reduction, so the
// surviving payload of a state does not depend on chunking; shards are
// fixed and sorted span-lexicographically, so layer content and order are
// bit-identical for every thread count, including pool == nullptr.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/types.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "offline/lower_bound.h"
#include "offline/optimal.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "util/check.h"

namespace rrs {
namespace offline {
namespace detail {

inline constexpr uint32_t kNoIndex = 0xffffffffu;
// Merge shards per layer. Fixed (not derived from the pool size) so the
// canonical layer order — shard by config hash, span-lexicographic inside a
// shard — is identical for every thread count.
inline constexpr uint32_t kNumShards = 32;
// Dominance is quadratic per config group; each state is checked against at
// most this many earlier groupmates, which keeps the pass linear-ish while
// still catching the dense equal-config clusters where dominance pays.
inline constexpr uint32_t kDominanceScanCap = 32;

// FNV-1a over the words with a final avalanche: the table probes use the low
// bits and the shard split uses the high bits, so both need mixing.
inline uint64_t HashSpan(const uint32_t* p, uint32_t n) {
  uint64_t h = 1469598103934665603ULL ^ (uint64_t{n} << 32);
  for (uint32_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

// Multiset overlap of two sorted uint32 spans of equal length m.
inline uint32_t SortedOverlap(const uint32_t* a, const uint32_t* b,
                              uint32_t m) {
  uint32_t overlap = 0;
  uint32_t i = 0, j = 0;
  while (i < m && j < m) {
    if (a[i] == b[j]) {
      ++overlap;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return overlap;
}

template <typename Model>
class LayeredSearch {
 public:
  using Payload = typename Model::Payload;
  static constexpr uint32_t kStride = Model::kStride;

  struct Node {
    uint64_t hash = 0;
    Payload payload;
    uint32_t offset = 0;  // into the owning layer's arena
    uint32_t len = 0;     // span length in words
  };
  static_assert(sizeof(Node) == 32);

  // A finalized layer: nodes in canonical order (config-hash shard, then
  // span-lexicographic) over one contiguous arena.
  struct Layer {
    std::vector<uint32_t> arena;
    std::vector<Node> nodes;

    const uint32_t* span(const Node& n) const {
      return arena.data() + n.offset;
    }
  };

  // `options` supplies the resources, cost model, budget, pool and pruning
  // switches; `incumbent` is a certified upper bound on every completion the
  // caller needs to keep. With keep_history every layer is retained (for
  // parent links).
  LayeredSearch(const Model& model, const OptimalOptions& options,
                uint32_t num_colors, Round horizon, uint64_t incumbent,
                bool keep_history)
      : model_(model),
        m_(options.num_resources),
        num_colors_(num_colors),
        delta_(options.cost_model.delta),
        horizon_(horizon),
        max_states_(options.max_states),
        pool_(options.pool),
        prune_bound_(options.prune_bound),
        prune_dominance_(options.prune_dominance),
        keep_history_(keep_history),
        incumbent_(incumbent) {}

  // Expands layer by layer from the round-0 state; false when the budget
  // ran out first, leaving last() as the unexpanded frontier.
  bool Run();

  // The final layer, or the frontier after exhaustion.
  const Layer& last() const { return cur_; }
  // Layer k (0 <= k <= horizon) of a completed run with keep_history.
  const Layer& layer(Round k) const {
    return static_cast<size_t>(k) < history_.size()
               ? history_[static_cast<size_t>(k)]
               : cur_;
  }

  // Certified lower bound from an exhausted run: every completion passes
  // through (a dominating surrogate of) a frontier state, so the minimum of
  // Cost + admissible heuristic over the frontier bounds it from below.
  uint64_t FrontierBound() const;

  // Copies the search effort counters into an OptimalResult/RobustResult.
  template <typename Result>
  void Report(Result& result) const {
    result.states_expanded = states_expanded_;
    result.states_generated = states_generated_;
    result.pruned_bound = pruned_bound_;
    result.pruned_dominated = pruned_dominated_;
    result.max_layer_width = max_layer_width_;
  }

  // Records <prefix>{solves, solves_exact, states_*, pruned_*} and the
  // <prefix>layer_width histogram into the effective scope.
  void Absorb(obs::Scope* explicit_scope, std::string_view prefix,
              bool exact) const;

 private:
  // Arena + node list + open-addressing intern table. Single-writer; chunk
  // expansion and shard merge each own one, so the hot path takes no locks
  // and performs no per-state heap allocation.
  struct Store : Layer {
    std::vector<uint32_t> slots;  // node indices; kNoIndex = empty
    uint64_t mask = 0;

    void Reset(size_t expected) {
      this->arena.clear();
      this->nodes.clear();
      size_t cap = 64;
      while (cap < expected * 2) cap <<= 1;
      slots.assign(cap, kNoIndex);
      mask = cap - 1;
    }

    void Rehash() {
      size_t cap = slots.size() * 2;
      slots.assign(cap, kNoIndex);
      mask = cap - 1;
      for (uint32_t i = 0; i < this->nodes.size(); ++i) {
        uint64_t pos = this->nodes[i].hash & mask;
        while (slots[pos] != kNoIndex) pos = (pos + 1) & mask;
        slots[pos] = i;
      }
    }

    // Interns (span, payload); an identical span folds in by Model::Merge.
    void Intern(uint64_t hash, const uint32_t* sp, uint32_t len,
                const Payload& payload) {
      uint64_t pos = hash & mask;
      for (;;) {
        const uint32_t idx = slots[pos];
        if (idx == kNoIndex) break;
        Node& n = this->nodes[idx];
        if (n.hash == hash && n.len == len &&
            std::memcmp(this->arena.data() + n.offset, sp,
                        len * sizeof(uint32_t)) == 0) {
          Model::Merge(n.payload, payload);
          return;
        }
        pos = (pos + 1) & mask;
      }
      Node n;
      n.hash = hash;
      n.payload = payload;
      n.offset = static_cast<uint32_t>(this->arena.size());
      n.len = len;
      this->arena.insert(this->arena.end(), sp, sp + len);
      slots[pos] = static_cast<uint32_t>(this->nodes.size());
      this->nodes.push_back(n);
      if (this->nodes.size() * 4 >= slots.size() * 3) Rehash();
    }
  };

  // Per-chunk expansion context: an intern store, the shard partition of
  // its nodes, tallies, and all scratch — everything a worker touches is
  // chunk-local.
  struct Chunk {
    Store store;
    std::array<std::vector<uint32_t>, kNumShards> by_shard;
    uint64_t generated = 0;
    uint64_t pruned = 0;

    std::vector<uint32_t> col_off;   // per color: bucket offset in parent
    std::vector<uint32_t> col_len;   // per color: bucket count
    std::vector<uint32_t> alphabet;  // candidate config colors, sorted
    std::vector<uint8_t> in_alphabet;
    std::vector<uint32_t> cfg;       // config being enumerated
    std::vector<uint32_t> exec;      // per color: executions under cfg
    std::vector<uint32_t> child;     // child span under construction
  };

  uint64_t Heuristic(const uint32_t* span) const;
  void ExpandChunk(size_t lo, size_t hi, Round k, Chunk& ctx) const;
  void EmitChildren(uint32_t parent_index, Round k, Chunk& ctx) const;
  void EnumerateConfigs(uint32_t parent_index, Round k, size_t alpha_from,
                        Chunk& ctx) const;
  void ProcessConfig(uint32_t parent_index, Round k, Chunk& ctx) const;
  uint64_t MergeShard(const std::vector<Chunk>& chunks, uint32_t shard,
                      Store& out) const;
  template <typename Fn>
  void ForIndices(int64_t n, Fn&& fn) const {
    if (pool_ == nullptr) {
      for (int64_t i = 0; i < n; ++i) fn(i);
    } else {
      ParallelFor(*pool_, 0, n, fn);
    }
  }
  size_t threads() const {
    return pool_ == nullptr ? 0 : pool_->thread_count();
  }

  const Model& model_;
  const uint32_t m_;
  const uint32_t num_colors_;
  const uint64_t delta_;
  const Round horizon_;
  const uint64_t max_states_;
  ThreadPool* const pool_;
  const bool prune_bound_;
  const bool prune_dominance_;
  const bool keep_history_;
  const uint64_t incumbent_;

  Layer cur_;
  std::vector<Layer> history_;
  obs::LogHistogram layer_widths_;
  uint64_t states_expanded_ = 0;
  uint64_t states_generated_ = 0;
  uint64_t pruned_bound_ = 0;
  uint64_t pruned_dominated_ = 0;
  uint64_t max_layer_width_ = 0;
};

// Admissible lower bound on the completion cost of a state: per color, the
// capacity-relaxed EDF drops on the bucket counts (the color owns all m
// resources, reconfiguration free — a per-profile generalization of the
// Par-EDF drop leg of offline::LowerBound), and for colors outside the
// config the cheaper of dropping everything and one reconfiguration plus
// the relaxed drops. Each color's term charges only that color's drops and
// a reconfiguration *to that color*, so the sum never exceeds any
// completion's true remaining cost.
template <typename Model>
uint64_t LayeredSearch<Model>::Heuristic(const uint32_t* span) const {
  uint64_t h = 0;
  size_t pos = m_;
  for (uint32_t c = 0; c < num_colors_; ++c) {
    const uint32_t len = span[pos++];
    if (len == 0) continue;
    const uint32_t* buckets = span + pos;
    pos += kStride * static_cast<size_t>(len);
    const uint64_t w = model_.drop_cost(c);
    const RelaxedDrops relaxed = StridedRelaxedDrops<kStride>(buckets, len, m_);
    uint64_t leg = relaxed.drops * w;
    if (std::find(span, span + m_, c) == span + m_) {
      leg = std::min(relaxed.pending * w, delta_ + leg);
    }
    h += leg;
  }
  return h;
}

template <typename Model>
void LayeredSearch<Model>::EmitChildren(uint32_t parent_index, Round k,
                                        Chunk& ctx) const {
  const uint32_t* span = cur_.span(cur_.nodes[parent_index]);

  // Index the parent's per-color bucket sections.
  size_t pos = m_;
  for (uint32_t c = 0; c < num_colors_; ++c) {
    const uint32_t len = span[pos++];
    ctx.col_len[c] = len;
    ctx.col_off[c] = static_cast<uint32_t>(pos);
    pos += kStride * static_cast<size_t>(len);
  }

  // Alphabet: current colors ∪ colors with pending buckets (reconfiguring to
  // a color with nothing pending is dominated; "keep" is covered by
  // including the current colors).
  ctx.alphabet.clear();
  for (uint32_t r = 0; r < m_; ++r) {
    const uint32_t c = span[r];
    if (!ctx.in_alphabet[c]) {
      ctx.in_alphabet[c] = 1;
      ctx.alphabet.push_back(c);
    }
  }
  for (uint32_t c = 0; c < num_colors_; ++c) {
    if (ctx.col_len[c] != 0 && !ctx.in_alphabet[c]) {
      ctx.in_alphabet[c] = 1;
      ctx.alphabet.push_back(c);
    }
  }
  std::sort(ctx.alphabet.begin(), ctx.alphabet.end());
  for (uint32_t c : ctx.alphabet) ctx.in_alphabet[c] = 0;

  ctx.cfg.clear();
  EnumerateConfigs(parent_index, k, 0, ctx);
}

template <typename Model>
void LayeredSearch<Model>::EnumerateConfigs(uint32_t parent_index, Round k,
                                            size_t alpha_from,
                                            Chunk& ctx) const {
  if (ctx.cfg.size() == m_) {
    ProcessConfig(parent_index, k, ctx);
    return;
  }
  for (size_t i = alpha_from; i < ctx.alphabet.size(); ++i) {
    ctx.cfg.push_back(ctx.alphabet[i]);
    EnumerateConfigs(parent_index, k, i, ctx);
    ctx.cfg.pop_back();
  }
}

template <typename Model>
void LayeredSearch<Model>::ProcessConfig(uint32_t parent_index, Round k,
                                         Chunk& ctx) const {
  const Node& node = cur_.nodes[parent_index];
  const uint32_t* span = cur_.span(node);
  const uint32_t black = num_colors_;

  Payload payload = Model::Reconfigure(
      node.payload, parent_index,
      delta_ * (m_ - SortedOverlap(span, ctx.cfg.data(), m_)));

  // Execution counts per color under this config (cfg is sorted).
  for (uint32_t i = 0; i < m_;) {
    const uint32_t c = ctx.cfg[i];
    uint32_t j = i;
    while (j < m_ && ctx.cfg[j] == c) ++j;
    if (c != black) ctx.exec[c] = j - i;
    i = j;
  }

  // Build the child span in place: the config, then each color's buckets
  // after executions, aging and round k+1's arrivals.
  ctx.child.clear();
  ctx.child.insert(ctx.child.end(), ctx.cfg.begin(), ctx.cfg.end());
  for (uint32_t c = 0; c < num_colors_; ++c) {
    const size_t len_pos = ctx.child.size();
    ctx.child.push_back(0);
    const uint32_t out_len =
        model_.Advance(c, span + ctx.col_off[c], ctx.col_len[c], ctx.exec[c],
                       k + 1, payload, ctx.child);
    ctx.child[len_pos] = out_len;
  }
  for (uint32_t c : ctx.cfg) {
    if (c != black) ctx.exec[c] = 0;
  }

  ++ctx.generated;
  if (prune_bound_ &&
      Model::Cost(payload) + Heuristic(ctx.child.data()) > incumbent_) {
    ++ctx.pruned;
    return;
  }
  const uint32_t len = static_cast<uint32_t>(ctx.child.size());
  ctx.store.Intern(HashSpan(ctx.child.data(), len), ctx.child.data(), len,
                   payload);
}

template <typename Model>
void LayeredSearch<Model>::ExpandChunk(size_t lo, size_t hi, Round k,
                                       Chunk& ctx) const {
  ctx.store.Reset((hi - lo) * 4);
  for (auto& list : ctx.by_shard) list.clear();
  ctx.generated = 0;
  ctx.pruned = 0;
  ctx.col_off.resize(num_colors_);
  ctx.col_len.resize(num_colors_);
  ctx.in_alphabet.assign(num_colors_ + 1, 0);
  ctx.exec.assign(num_colors_, 0);

  for (size_t i = lo; i < hi; ++i) {
    EmitChildren(static_cast<uint32_t>(i), k, ctx);
  }
  // Partition by config shard (hash of the first m words): states sharing a
  // config land in the same shard, which makes config groups contiguous
  // after the per-shard lexicographic sort — dominance needs that.
  for (uint32_t i = 0; i < ctx.store.nodes.size(); ++i) {
    const uint64_t h = HashSpan(ctx.store.span(ctx.store.nodes[i]), m_);
    ctx.by_shard[h >> 59].push_back(i);
  }
}

// Merges one shard's candidates from every chunk, sorts span-
// lexicographically, and applies the dominance rule. Returns the number of
// dominated states removed.
template <typename Model>
uint64_t LayeredSearch<Model>::MergeShard(const std::vector<Chunk>& chunks,
                                          uint32_t shard, Store& out) const {
  size_t expected = 0;
  for (const Chunk& ctx : chunks) expected += ctx.by_shard[shard].size();
  if (expected == 0) {
    // Thin layers leave most shards empty; skip the table reset entirely —
    // at 32 shards x horizon layers the resets would dominate small solves.
    out.arena.clear();
    out.nodes.clear();
    return 0;
  }
  out.Reset(expected + 1);
  for (const Chunk& ctx : chunks) {
    for (uint32_t idx : ctx.by_shard[shard]) {
      const Node& n = ctx.store.nodes[idx];
      out.Intern(n.hash, ctx.store.span(n), n.len, n.payload);
    }
  }

  std::sort(out.nodes.begin(), out.nodes.end(),
            [&](const Node& a, const Node& b) {
              return std::lexicographical_compare(
                  out.span(a), out.span(a) + a.len, out.span(b),
                  out.span(b) + b.len);
            });

  if (!prune_dominance_ || out.nodes.size() < 2) return 0;

  // Config groups are contiguous after the sort (the span starts with the
  // config words). Within a group, order by Model::GroupBefore (stable: the
  // canonical sort breaks ties), which puts every possible dominator before
  // its victims, and kill any state dominated by an earlier survivor.
  std::vector<Node>& nodes = out.nodes;
  std::vector<uint8_t> dead(nodes.size(), 0);
  std::vector<uint32_t> group;
  uint64_t removed = 0;
  auto same_config = [&](const Node& a, const Node& b) {
    return std::memcmp(out.span(a), out.span(b), m_ * sizeof(uint32_t)) == 0;
  };

  size_t g0 = 0;
  while (g0 < nodes.size()) {
    size_t g1 = g0 + 1;
    while (g1 < nodes.size() && same_config(nodes[g0], nodes[g1])) ++g1;
    if (g1 - g0 >= 2) {
      group.resize(g1 - g0);
      for (size_t i = 0; i < group.size(); ++i) {
        group[i] = static_cast<uint32_t>(g0 + i);
      }
      std::stable_sort(group.begin(), group.end(),
                       [&](uint32_t a, uint32_t b) {
                         return Model::GroupBefore(nodes[a].payload,
                                                   nodes[b].payload);
                       });
      for (size_t j = 1; j < group.size(); ++j) {
        const Node& b = nodes[group[j]];
        uint32_t scanned = 0;
        for (size_t i = 0; i < j && scanned < kDominanceScanCap; ++i) {
          if (dead[group[i]]) continue;
          ++scanned;
          const Node& a = nodes[group[i]];
          if (model_.Dominates(out.span(a), a.len, a.payload, out.span(b),
                               b.len, b.payload)) {
            dead[group[j]] = 1;
            ++removed;
            break;
          }
        }
      }
    }
    g0 = g1;
  }
  if (removed != 0) {
    size_t w = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (!dead[i]) nodes[w++] = nodes[i];
    }
    nodes.resize(w);
  }
  return removed;
}

template <typename Model>
bool LayeredSearch<Model>::Run() {
  // Round-0 state: all-black config and the round-0 arrivals.
  cur_.arena.assign(m_, num_colors_);
  Node root;
  for (uint32_t c = 0; c < num_colors_; ++c) {
    const size_t len_pos = cur_.arena.size();
    cur_.arena.push_back(0);
    const uint32_t out_len =
        model_.Advance(c, nullptr, 0, 0, 0, root.payload, cur_.arena);
    cur_.arena[len_pos] = out_len;
  }
  root.len = static_cast<uint32_t>(cur_.arena.size());
  root.hash = HashSpan(cur_.arena.data(), root.len);
  cur_.nodes = {root};

  std::vector<Chunk> chunks;
  std::vector<Store> shard_out(kNumShards);
  Layer next;  // ping-pongs with cur_ so layer buffers are reused

  for (Round k = 0; k < horizon_; ++k) {
    const size_t width = cur_.nodes.size();
    layer_widths_.Record(width);
    max_layer_width_ = std::max<uint64_t>(max_layer_width_, width);
    if (states_expanded_ + width > max_states_) return false;
    states_expanded_ += width;

    // Chunked expansion: fixed ranges; the chunk count only affects work
    // partitioning, never the merged layer (Merge is order-free).
    const size_t num_chunks = std::clamp<size_t>(
        width / 64, 1, std::max<size_t>(1, 4 * (threads() + 1)));
    chunks.resize(num_chunks);
    ForIndices(static_cast<int64_t>(num_chunks), [&](int64_t i) {
      const size_t lo = width * static_cast<size_t>(i) / num_chunks;
      const size_t hi = width * (static_cast<size_t>(i) + 1) / num_chunks;
      ExpandChunk(lo, hi, k, chunks[static_cast<size_t>(i)]);
    });
    for (const Chunk& ctx : chunks) {
      states_generated_ += ctx.generated;
      pruned_bound_ += ctx.pruned;
    }

    // Sharded merge + canonical sort + dominance, then one contiguous next
    // layer in shard order.
    std::array<uint64_t, kNumShards> dominated{};
    ForIndices(kNumShards, [&](int64_t s) {
      dominated[static_cast<size_t>(s)] =
          MergeShard(chunks, static_cast<uint32_t>(s),
                     shard_out[static_cast<size_t>(s)]);
    });
    for (uint64_t d : dominated) pruned_dominated_ += d;

    size_t total_nodes = 0, total_words = 0;
    std::array<size_t, kNumShards> node_base{}, word_base{};
    for (uint32_t s = 0; s < kNumShards; ++s) {
      node_base[s] = total_nodes;
      word_base[s] = total_words;
      total_nodes += shard_out[s].nodes.size();
      for (const Node& n : shard_out[s].nodes) total_words += n.len;
    }
    RRS_CHECK_GT(total_nodes, 0u) << "empty layer despite admissible pruning";

    next.arena.resize(total_words);
    next.nodes.resize(total_nodes);
    ForIndices(kNumShards, [&](int64_t si) {
      const uint32_t s = static_cast<uint32_t>(si);
      size_t word = word_base[s];
      size_t slot = node_base[s];
      for (const Node& n : shard_out[s].nodes) {
        Node copy = n;
        copy.offset = static_cast<uint32_t>(word);
        std::memcpy(next.arena.data() + word, shard_out[s].span(n),
                    n.len * sizeof(uint32_t));
        word += n.len;
        next.nodes[slot++] = copy;
      }
    });

    if (keep_history_) {
      history_.push_back(std::move(cur_));
      cur_ = std::move(next);
      next = Layer{};
    } else {
      std::swap(cur_, next);
    }
  }
  layer_widths_.Record(cur_.nodes.size());
  max_layer_width_ = std::max<uint64_t>(max_layer_width_, cur_.nodes.size());
  return true;
}

template <typename Model>
uint64_t LayeredSearch<Model>::FrontierBound() const {
  const size_t width = cur_.nodes.size();
  std::vector<uint64_t> chunk_min(
      std::max<size_t>(1, std::min<size_t>(width, 4 * (threads() + 1))),
      ~uint64_t{0});
  const size_t num_chunks = chunk_min.size();
  ForIndices(static_cast<int64_t>(num_chunks), [&](int64_t i) {
    const size_t lo = width * static_cast<size_t>(i) / num_chunks;
    const size_t hi = width * (static_cast<size_t>(i) + 1) / num_chunks;
    uint64_t best = ~uint64_t{0};
    for (size_t j = lo; j < hi; ++j) {
      const Node& n = cur_.nodes[j];
      best = std::min(best, Model::Cost(n.payload) + Heuristic(cur_.span(n)));
    }
    chunk_min[static_cast<size_t>(i)] = best;
  });
  return *std::min_element(chunk_min.begin(), chunk_min.end());
}

template <typename Model>
void LayeredSearch<Model>::Absorb(obs::Scope* explicit_scope,
                                  std::string_view prefix, bool exact) const {
  obs::Scope* scope = obs::EffectiveScope(explicit_scope);
  if (scope == nullptr) return;
  std::pair<std::string_view, uint64_t> counters[] = {
      {"solves", 1},
      {"solves_exact", exact ? 1u : 0u},
      {"states_expanded", states_expanded_},
      {"states_generated", states_generated_},
      {"pruned_bound", pruned_bound_},
      {"pruned_dominated", pruned_dominated_},
  };
  std::string names[std::size(counters)];
  for (size_t i = 0; i < std::size(counters); ++i) {
    names[i] = std::string(prefix).append(counters[i].first);
    counters[i].first = names[i];
  }
  scope->AbsorbCounters(counters);
  scope->AbsorbHistogram(std::string(prefix).append("layer_width"),
                         layer_widths_);
}

}  // namespace detail
}  // namespace offline
}  // namespace rrs
