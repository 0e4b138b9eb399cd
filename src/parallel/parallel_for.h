// Chunked parallel_for built on ThreadPool.
//
// ParallelFor(pool, begin, end, fn) partitions [begin, end) into contiguous
// chunks and invokes fn(i) for every index. fn must be safe to call
// concurrently for distinct indices; exceptions propagate to the caller
// (first one wins).
//
// Scheduling: the range is cut into ~8 chunks per participant and claimed
// dynamically off a shared atomic cursor, so a worker that draws cheap
// indices steals the chunks a slow worker never reaches — static block
// assignment loses exactly when per-index cost is skewed, which is the
// common case for simulation sweeps (cost scales with instance size and
// drop/reconfig activity). The caller participates as an extra worker: it
// would otherwise block in future::get() while holding a core, and a
// single-threaded pool degenerates to a plain loop in the caller with no
// task round-trip.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <mutex>
#include <vector>

#include "parallel/thread_pool.h"

namespace rrs {

template <typename Fn>
void ParallelFor(ThreadPool& pool, int64_t begin, int64_t end, Fn&& fn,
                 int64_t min_chunk = 1) {
  if (begin >= end) return;
  const int64_t total = end - begin;
  const int64_t participants =
      static_cast<int64_t>(pool.thread_count()) + 1;  // workers + caller
  // ~8 chunks per participant: fine enough that one slow chunk can be
  // compensated by stealing, coarse enough that the atomic claim is noise.
  int64_t chunk = std::max<int64_t>({min_chunk, 1, total / (participants * 8)});
  const int64_t num_chunks = (total + chunk - 1) / chunk;

  if (num_chunks <= 1) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }

  std::atomic<int64_t> next_chunk{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  auto drain = [&] {
    for (;;) {
      const int64_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks || failed.load(std::memory_order_relaxed)) return;
      const int64_t lo = begin + c * chunk;
      const int64_t hi = std::min(end, lo + chunk);
      try {
        for (int64_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  // Helpers beyond num_chunks - 1 could never claim a chunk (the caller
  // takes at least one).
  const int64_t helpers = std::min<int64_t>(participants - 1, num_chunks - 1);
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(helpers));
  for (int64_t h = 0; h < helpers; ++h) {
    futures.push_back(pool.Submit(drain));
  }
  drain();  // caller participates
  for (auto& f : futures) f.get();  // drain() swallows exceptions; no throw
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rrs
