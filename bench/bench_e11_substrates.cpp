// E11 — substrate microbenchmarks (google-benchmark): LruTracker, the
// thread-pool sweep scaling, and the SPSC queue.
#include <atomic>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "container/lru_tracker.h"
#include "parallel/parallel_for.h"
#include "parallel/spsc_queue.h"
#include "parallel/thread_pool.h"
#include "util/rng.h"

namespace {

void BM_LruTrackerTouchTopK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  rrs::Rng rng(5);
  rrs::LruTracker lru(n);
  for (uint32_t k = 0; k < n; ++k) lru.Insert(k, static_cast<int64_t>(k));
  int64_t ts = static_cast<int64_t>(n);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    lru.Touch(static_cast<uint32_t>(rng.NextBounded(n)), ++ts);
    lru.TopK(n / 4, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ThreadPoolParallelFor(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  rrs::ThreadPool pool(threads);
  const int64_t work_items = 1 << 14;
  for (auto _ : state) {
    std::atomic<uint64_t> total{0};
    rrs::ParallelFor(pool, 0, work_items, [&](int64_t i) {
      // Simulate a small deterministic computation per item.
      uint64_t h = static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 29;
      total.fetch_add(h & 0xff, std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(total.load());
  }
  state.SetItemsProcessed(state.iterations() * work_items);
}

void BM_SpscQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    rrs::SpscQueue<uint64_t> queue(4096);
    constexpr uint64_t kCount = 1 << 16;
    std::thread producer([&] {
      for (uint64_t i = 0; i < kCount; ++i) {
        while (!queue.TryPush(i)) std::this_thread::yield();
      }
    });
    uint64_t received = 0, sink = 0, v = 0;
    while (received < kCount) {
      if (queue.TryPop(v)) {
        sink += v;
        ++received;
      }
    }
    producer.join();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}

}  // namespace

BENCHMARK(BM_LruTrackerTouchTopK)->Arg(64)->Arg(1024);
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_SpscQueueThroughput);

BENCHMARK_MAIN();
