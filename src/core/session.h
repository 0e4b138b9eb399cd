// The Session contract: how one long-lived object serves an unbounded
// series of tenants/instances, and the pool that recycles such objects.
//
// Every session core in the library (core/Engine, reduce/OnlineSolver on
// top of it, reduce/PipelineSession, and through them every sched/ policy)
// obeys three rules:
//
//   1. *Rebind in place.* `Reset(next tenant)` reinitializes the object for
//      a new instance/color table without reconstructing it. All buffers —
//      pending rings, timing wheels, policy scratch, instrument blocks —
//      are owned by the session and reused; Reset only re-sizes them when
//      the tenant's shape (color count, resource count, max delay bound)
//      actually grows. The session's buffers are its arena: allocation
//      happens on first growth to a shape, never again at that shape.
//
//   2. *Zero steady-state allocation.* Once a session has served one tenant
//      of a given shape, serving further tenants of that shape performs no
//      steady-state heap allocation in the round loop (the same contract
//      the engines already make per run, extended across runs; gated by
//      bench/bench_fleet's counting-allocator measurement).
//
//   3. *Bit-identical results.* A run through a reused session produces a
//      RunResult identical to a run through a freshly constructed engine —
//      no state may leak between tenants. tests/fleet_test.cpp pins this
//      differentially for every registry policy.
//
// SessionPool is the recycling primitive built on that contract: fleet
// shards and analysis harnesses Acquire a session (recycled if available,
// created via the factory otherwise), Reset it onto their tenant, and
// Release it when the tenant completes. The pool is deliberately
// single-threaded: each fleet shard owns one pool, so pooling costs no
// synchronization (shard → worker affinity makes the pool single-writer).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace rrs {

template <typename SessionT>
class SessionPool {
 public:
  using Factory = std::function<std::unique_ptr<SessionT>()>;

  // Default factory requires SessionT to be default-constructible.
  SessionPool() : factory_([] { return std::make_unique<SessionT>(); }) {}
  explicit SessionPool(Factory factory) : factory_(std::move(factory)) {}

  // Returns a recycled session if one is free, otherwise creates one.
  std::unique_ptr<SessionT> Acquire() {
    if (!free_.empty()) {
      std::unique_ptr<SessionT> s = std::move(free_.back());
      free_.pop_back();
      ++recycled_;
      return s;
    }
    ++created_;
    return factory_();
  }

  // Returns a session to the pool for reuse. The caller must not retain
  // references into it.
  void Release(std::unique_ptr<SessionT> session) {
    free_.push_back(std::move(session));
  }

  size_t idle() const { return free_.size(); }
  // Sessions created because the pool was empty (pool growth).
  uint64_t created() const { return created_; }
  // Acquire calls served by recycling an existing session.
  uint64_t recycled() const { return recycled_; }

 private:
  Factory factory_;
  std::vector<std::unique_ptr<SessionT>> free_;
  uint64_t created_ = 0;
  uint64_t recycled_ = 0;
};

}  // namespace rrs
