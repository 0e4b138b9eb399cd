// Tests for src/parallel: ThreadPool, ParallelFor, SpscQueue.
#include <atomic>
#include <new>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/parallel_for.h"
#include "parallel/spsc_queue.h"
#include "parallel/thread_pool.h"

namespace rrs {
namespace {

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(4);
  auto f1 = pool.Submit([] { return 6 * 7; });
  auto f2 = pool.Submit([] { return std::string("done"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "done");
}

TEST(ThreadPool, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 1000; ++i) {
    futures.push_back(pool.Submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitIdleDrainsQueue) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DefaultThreadCountPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolDeathTest, SubmitAfterShutdownIsFatal) {
  // ~ThreadPool flips shutting_down_; a Submit that loses the race against
  // shutdown must trip the check rather than enqueue onto joined workers.
  // The child constructs a pool in raw storage and destroys it without
  // releasing the storage, so the post-destruction Submit deterministically
  // sees shutting_down_ == true.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        alignas(ThreadPool) unsigned char storage[sizeof(ThreadPool)];
        auto* p = new (storage) ThreadPool(1);
        p->~ThreadPool();
        p->Submit([] {});
      },
      "Submit after shutdown");
}

TEST(ThreadPool, WaitIdleRacingSubmitStress) {
  // WaitIdle must observe a quiescent pool: every task submitted before the
  // call finished, none lost, no deadlock — while another thread keeps
  // submitting. Runs many short waves to shake out lost-notify races.
  ThreadPool pool(4);
  std::atomic<uint64_t> done{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> submitted{0};
  // Count a submission before handing it to the pool: the task may run (and
  // bump done) before control returns from Submit.
  std::thread submitter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      submitted.fetch_add(1, std::memory_order_relaxed);
      pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  for (int wave = 0; wave < 200; ++wave) {
    for (int i = 0; i < 20; ++i) {
      submitted.fetch_add(1, std::memory_order_relaxed);
      pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    // After WaitIdle returns, every submission that happened-before the call
    // has run; concurrent submissions may or may not have. The invariant we
    // can check exactly: done never exceeds submitted, and the pool made
    // progress (queue drained at some observation point).
    pool.WaitIdle();
    EXPECT_LE(done.load(), submitted.load());
  }
  stop.store(true);
  submitter.join();
  pool.WaitIdle();
  EXPECT_EQ(done.load(), submitted.load());
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(pool, 0, 1000, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(pool, 5, 5, [&](int64_t) { ++calls; });
  ParallelFor(pool, 5, 3, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelFor(pool, 0, 100,
                           [&](int64_t i) {
                             if (i == 37) throw std::runtime_error("x");
                           }),
               std::runtime_error);
}

TEST(ParallelFor, SkewedWorkStillCoversEveryIndexOnce) {
  // Per-index cost varies by ~100x; dynamic chunk claiming must still cover
  // the range exactly once (a straggler's unclaimed chunks get stolen).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  std::atomic<uint64_t> checksum{0};
  ParallelFor(pool, 0, 10000, [&](int64_t i) {
    volatile uint64_t sink = 0;
    for (int64_t spin = 0; spin < (i % 97) * 20; ++spin) {
      sink = sink + static_cast<uint64_t>(spin);
    }
    hits[static_cast<size_t>(i)]++;
    checksum.fetch_add(static_cast<uint64_t>(i), std::memory_order_relaxed);
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  EXPECT_EQ(checksum.load(), uint64_t{10000} * 9999 / 2);
}

TEST(ParallelFor, LargeMinChunkFallsBackToSerial) {
  ThreadPool pool(4);
  std::vector<int> hits(10, 0);  // no atomics: must run in the caller only
  ParallelFor(
      pool, 0, 10, [&](int64_t i) { hits[static_cast<size_t>(i)]++; },
      /*min_chunk=*/100);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, SingleThreadPoolCoversRange) {
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(500);
  ParallelFor(pool, 0, 500, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NegativeRangeAndOffsets) {
  ThreadPool pool(2);
  std::atomic<int64_t> sum{0};
  ParallelFor(pool, -100, 100,
              [&](int64_t i) { sum.fetch_add(i, std::memory_order_relaxed); });
  EXPECT_EQ(sum.load(), -100);  // sum of [-100, 100) = -100
}

TEST(SpscQueue, FifoSingleThread) {
  SpscQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(i));
  int out;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.TryPop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.TryPop(out));
}

TEST(SpscQueue, FullRejectsPush) {
  SpscQueue<int> q(2);  // capacity rounds up; fill until rejection
  int pushed = 0;
  while (q.TryPush(pushed)) ++pushed;
  EXPECT_GE(pushed, 2);
  int out;
  ASSERT_TRUE(q.TryPop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(q.TryPush(99));  // space freed
}

TEST(SpscQueue, TwoThreadStressPreservesOrderAndCount) {
  SpscQueue<uint64_t> q(1024);
  constexpr uint64_t kCount = 200000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!q.TryPush(i)) std::this_thread::yield();
    }
  });
  uint64_t expected = 0;
  while (expected < kCount) {
    uint64_t v;
    if (q.TryPop(v)) {
      ASSERT_EQ(v, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(q.Empty());
}

TEST(GlobalThreadPool, IsSingleton) {
  ThreadPool& a = GlobalThreadPool();
  ThreadPool& b = GlobalThreadPool();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace rrs
