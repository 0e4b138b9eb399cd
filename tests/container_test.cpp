// Unit and randomized-property tests for src/container: FlatMap,
// LruTracker.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "container/flat_map.h"
#include "container/lru_tracker.h"
#include "util/rng.h"

namespace rrs {
namespace {

// ------------------------------------------------------------- FlatMap ----

TEST(FlatMap, InsertFindErase) {
  FlatMap<int, std::string> map;
  map[3] = "three";
  map[1] = "one";
  map[2] = "two";
  EXPECT_EQ(map.size(), 3u);
  EXPECT_TRUE(map.CheckInvariants());
  ASSERT_TRUE(map.contains(2));
  EXPECT_EQ(map.at(2), "two");
  EXPECT_EQ(map.erase(2), 1u);
  EXPECT_EQ(map.erase(2), 0u);
  EXPECT_FALSE(map.contains(2));
  EXPECT_TRUE(map.CheckInvariants());
}

TEST(FlatMap, IterationIsSorted) {
  FlatMap<int, int> map;
  for (int k : {5, 1, 4, 2, 3}) map[k] = k * 10;
  int expected = 1;
  for (const auto& [key, value] : map) {
    EXPECT_EQ(key, expected);
    EXPECT_EQ(value, expected * 10);
    ++expected;
  }
  EXPECT_EQ(map.front().first, 1);
}

TEST(FlatMap, OperatorBracketDefaultConstructs) {
  FlatMap<int, uint64_t> map;
  map[7] += 3;
  map[7] += 4;
  EXPECT_EQ(map.at(7), 7u);
}

TEST(FlatMap, EmplaceReportsInsertion) {
  FlatMap<int, int> map;
  auto [it1, inserted1] = map.emplace(1, 10);
  EXPECT_TRUE(inserted1);
  auto [it2, inserted2] = map.emplace(1, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, 10);
}

TEST(FlatMap, RandomizedAgainstStdMap) {
  Rng rng(211);
  FlatMap<uint32_t, uint64_t> flat;
  std::map<uint32_t, uint64_t> ref;
  for (int step = 0; step < 5000; ++step) {
    uint32_t key = static_cast<uint32_t>(rng.NextBounded(64));
    double action = rng.UniformDouble();
    if (action < 0.6) {
      uint64_t v = rng.Next();
      flat[key] = v;
      ref[key] = v;
    } else {
      EXPECT_EQ(flat.erase(key), ref.erase(key));
    }
  }
  ASSERT_EQ(flat.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [key, value] : flat) {
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(value, it->second);
    ++it;
  }
}

// ---------------------------------------------------------- LruTracker ----

TEST(LruTracker, TopKOrdersByTimestampDescThenKeyAsc) {
  LruTracker lru(8);
  lru.Insert(3, 10);
  lru.Insert(1, 20);
  lru.Insert(5, 10);  // same ts as key 3 -> key order breaks the tie
  lru.Insert(2, 30);
  EXPECT_EQ(lru.TopK(4), (std::vector<uint32_t>{2, 1, 3, 5}));
  EXPECT_EQ(lru.TopK(2), (std::vector<uint32_t>{2, 1}));
}

TEST(LruTracker, TouchReorders) {
  LruTracker lru(4);
  lru.Insert(0, 1);
  lru.Insert(1, 2);
  lru.Touch(0, 3);
  EXPECT_EQ(lru.TopK(2), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(lru.TimestampOf(0), 3);
  EXPECT_TRUE(lru.CheckInvariants());
}

TEST(LruTracker, RemoveAndOldest) {
  LruTracker lru(4);
  lru.Insert(0, 5);
  lru.Insert(1, 9);
  uint32_t oldest = 99;
  ASSERT_TRUE(lru.Oldest(oldest));
  EXPECT_EQ(oldest, 0u);
  lru.Remove(0);
  ASSERT_TRUE(lru.Oldest(oldest));
  EXPECT_EQ(oldest, 1u);
  lru.Remove(1);
  EXPECT_FALSE(lru.Oldest(oldest));
  EXPECT_TRUE(lru.CheckInvariants());
}

TEST(LruTracker, TopKLargerThanSize) {
  LruTracker lru(4);
  lru.Insert(0, 1);
  EXPECT_EQ(lru.TopK(10).size(), 1u);
}

TEST(LruTracker, RandomizedInvariants) {
  Rng rng(109);
  LruTracker lru(32);
  std::vector<bool> present(32, false);
  for (int step = 0; step < 10000; ++step) {
    uint32_t key = static_cast<uint32_t>(rng.NextBounded(32));
    int64_t ts = static_cast<int64_t>(rng.NextBounded(1000));
    if (rng.UniformDouble() < 0.7) {
      if (lru.Contains(key)) {
        lru.Touch(key, ts);
      } else {
        lru.Insert(key, ts);
      }
      present[key] = true;
    } else if (present[key]) {
      lru.Remove(key);
      present[key] = false;
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(lru.CheckInvariants());
    }
  }
  // TopK of full size must be sorted by (ts desc, key asc).
  auto all = lru.TopK(32);
  for (size_t i = 1; i < all.size(); ++i) {
    int64_t prev = lru.TimestampOf(all[i - 1]);
    int64_t cur = lru.TimestampOf(all[i]);
    EXPECT_TRUE(prev > cur || (prev == cur && all[i - 1] < all[i]));
  }
}

}  // namespace
}  // namespace rrs
