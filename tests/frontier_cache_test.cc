// FrontierCache: the epoch-keyed LRU cache of chunk refinement
// frontiers (viz/frontier_cache.h). Covers LRU eviction order, same-key
// replacement, the capacity-0 (disabled) and capacity-1 edges, and
// concurrent Lookup/Insert. The capacity-0 cases are the regression tests
// for the Insert that took the evict branch on an empty slot vector.
#include "viz/frontier_cache.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace kdv {
namespace {

FrontierKey KeyFor(uint64_t epoch, double param) {
  FrontierKey key;
  key.epoch = epoch;
  key.width = 64;
  key.height = 48;
  key.hi0 = 1.0;
  key.hi1 = 1.0;
  key.tile_rows = 16;
  key.tile_cols = 16;
  key.param = param;
  return key;
}

std::shared_ptr<const FrameFrontiers> FrameWith(double base_lower) {
  auto frame = std::make_shared<FrameFrontiers>(1);
  (*frame)[0].base_lower = base_lower;
  return frame;
}

TEST(FrontierCacheTest, LookupMissesOnEmptyCache) {
  FrontierCache cache;
  EXPECT_EQ(cache.Lookup(KeyFor(1, 0.05)), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(FrontierCacheTest, InsertThenLookupHits) {
  FrontierCache cache;
  const FrontierKey key = KeyFor(1, 0.05);
  cache.Insert(key, FrameWith(3.0));
  std::shared_ptr<const FrameFrontiers> frame = cache.Lookup(key);
  ASSERT_NE(frame, nullptr);
  EXPECT_DOUBLE_EQ((*frame)[0].base_lower, 3.0);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(FrontierCacheTest, KeyDiffersByAnyField) {
  FrontierCache cache;
  cache.Insert(KeyFor(1, 0.05), FrameWith(1.0));
  // Same geometry, different epoch / param / mode: all distinct entries.
  EXPECT_EQ(cache.Lookup(KeyFor(2, 0.05)), nullptr);
  EXPECT_EQ(cache.Lookup(KeyFor(1, 0.10)), nullptr);
  FrontierKey tau = KeyFor(1, 0.05);
  tau.mode = 't';
  EXPECT_EQ(cache.Lookup(tau), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(1, 0.05)), nullptr);
}

TEST(FrontierCacheTest, SameKeyInsertReplaces) {
  FrontierCache cache(2);
  const FrontierKey key = KeyFor(1, 0.05);
  cache.Insert(key, FrameWith(1.0));
  cache.Insert(key, FrameWith(2.0));
  std::shared_ptr<const FrameFrontiers> frame = cache.Lookup(key);
  ASSERT_NE(frame, nullptr);
  EXPECT_DOUBLE_EQ((*frame)[0].base_lower, 2.0);
  // Replacement must not consume a second slot: a different key still fits
  // without evicting the replaced entry.
  cache.Insert(KeyFor(2, 0.05), FrameWith(9.0));
  EXPECT_NE(cache.Lookup(key), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(2, 0.05)), nullptr);
}

TEST(FrontierCacheTest, EvictsLeastRecentlyUsed) {
  FrontierCache cache(2);
  const FrontierKey a = KeyFor(1, 0.01);
  const FrontierKey b = KeyFor(1, 0.02);
  const FrontierKey c = KeyFor(1, 0.03);
  cache.Insert(a, FrameWith(1.0));
  cache.Insert(b, FrameWith(2.0));
  // Touch `a` so `b` becomes the LRU entry.
  ASSERT_NE(cache.Lookup(a), nullptr);
  cache.Insert(c, FrameWith(3.0));
  EXPECT_NE(cache.Lookup(a), nullptr);
  EXPECT_EQ(cache.Lookup(b), nullptr);
  EXPECT_NE(cache.Lookup(c), nullptr);
}

TEST(FrontierCacheTest, CapacityOneKeepsNewestOnly) {
  FrontierCache cache(1);
  const FrontierKey a = KeyFor(1, 0.01);
  const FrontierKey b = KeyFor(1, 0.02);
  cache.Insert(a, FrameWith(1.0));
  cache.Insert(b, FrameWith(2.0));
  EXPECT_EQ(cache.Lookup(a), nullptr);
  std::shared_ptr<const FrameFrontiers> frame = cache.Lookup(b);
  ASSERT_NE(frame, nullptr);
  EXPECT_DOUBLE_EQ((*frame)[0].base_lower, 2.0);
}

// Regression: capacity 0 used to take the evict branch (`0 >= 0`) and index
// slots_[0] of an empty vector. The contract now is "cache disabled".
TEST(FrontierCacheTest, CapacityZeroDisablesCache) {
  FrontierCache cache(0);
  const FrontierKey key = KeyFor(1, 0.05);
  cache.Insert(key, FrameWith(1.0));  // must not crash, must not store
  EXPECT_EQ(cache.Lookup(key), nullptr);
  cache.Insert(key, FrameWith(2.0));
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(FrontierCacheTest, NullValueInsertIsIgnored) {
  FrontierCache cache;
  cache.Insert(KeyFor(1, 0.05), nullptr);
  EXPECT_EQ(cache.Lookup(KeyFor(1, 0.05)), nullptr);
}

// Hammer one cache from several threads: interleaved Insert/Lookup over a
// key space larger than the capacity, checking only invariants that hold
// under any interleaving (no crash under tsan, values never tear — a hit
// always returns the exact frame some thread inserted for that key).
TEST(FrontierCacheTest, ConcurrentLookupInsert) {
  FrontierCache cache(4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<uint64_t> observed_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &observed_hits, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // 8 distinct keys; the frame payload encodes its key's param so a
        // cross-key mixup is detectable.
        const int slot = (t + i) % 8;
        const FrontierKey key = KeyFor(1, 0.01 * (slot + 1));
        if (i % 3 == 0) {
          cache.Insert(key, FrameWith(static_cast<double>(slot)));
        } else {
          std::shared_ptr<const FrameFrontiers> frame = cache.Lookup(key);
          if (frame != nullptr) {
            observed_hits.fetch_add(1);
            ASSERT_EQ((*frame)[0].base_lower, static_cast<double>(slot));
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(cache.hits(), observed_hits.load());
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
}

// Same hammer against a disabled cache: every lookup misses, nothing
// crashes (the capacity-0 regression under contention).
TEST(FrontierCacheTest, ConcurrentOpsOnDisabledCache) {
  FrontierCache cache(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 1000; ++i) {
        const FrontierKey key = KeyFor(1, 0.01 * ((t + i) % 4 + 1));
        cache.Insert(key, FrameWith(1.0));
        EXPECT_EQ(cache.Lookup(key), nullptr);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(cache.hits(), 0u);
}

}  // namespace
}  // namespace kdv
