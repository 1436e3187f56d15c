// Tests for the LRU behind both daemon caches: recency order and both
// bounds, the per-cache metric names, and the build path — concurrent
// misses on one key build once, and a build in flight blocks neither hits
// nor Stats().

#include "server/lru_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace campion::server {
namespace {

constexpr LruMetricNames kNames{"t.hit", "t.miss", "t.eviction",
                                "t.resident_bytes"};

using Cache = LruCache<std::string>;

std::shared_ptr<const std::string> Value(const std::string& text) {
  return std::make_shared<const std::string>(text);
}

// A builder that returns `text` charged `bytes`.
auto Builder(const std::string& text, std::size_t bytes = 1) {
  return [=] { return std::pair(Value(text), bytes); };
}

std::vector<std::string> ResidentValues(const Cache& cache) {
  std::vector<std::string> values;
  for (const LruEntry<std::string>& entry : cache.Entries()) {
    values.push_back(*entry.value);
  }
  return values;
}

TEST(LruCacheTest, HitsMoveEntriesToTheFrontOfTheListing) {
  Cache cache(0, 0, kNames);
  cache.Put("a", 1, Value("A"), 10);
  cache.Put("b", 2, Value("B"), 20);
  cache.Put("c", 3, Value("C"), 30);
  EXPECT_EQ(ResidentValues(cache), (std::vector<std::string>{"C", "B", "A"}));
  ASSERT_NE(cache.Get("a"), nullptr);
  ASSERT_NE(cache.Get("a"), nullptr);
  const std::vector<LruEntry<std::string>> entries = cache.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(*entries[0].value, "A");
  EXPECT_EQ(entries[0].key_hash, 1u);
  EXPECT_EQ(entries[0].hits, 2u);
  EXPECT_EQ(entries[0].seq, 1u);  // Inserted first.
  EXPECT_EQ(entries[1].seq, 3u);
  EXPECT_EQ(cache.Get("missing"), nullptr);
  const LruStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.resident_bytes, 60u);
}

TEST(LruCacheTest, PutKeepsTheIncumbentAndRefreshesIt) {
  Cache cache(0, 0, kNames);
  cache.Put("a", 1, Value("first"), 10);
  cache.Put("b", 2, Value("B"), 10);
  cache.Put("a", 1, Value("second"), 99);
  EXPECT_EQ(ResidentValues(cache),
            (std::vector<std::string>{"first", "B"}));
  EXPECT_EQ(cache.Stats().resident_bytes, 20u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedPastEitherBound) {
  Cache by_count(0, 2, kNames);
  by_count.Put("a", 1, Value("A"), 1);
  by_count.Put("b", 2, Value("B"), 1);
  ASSERT_NE(by_count.Get("a"), nullptr);  // b is now the LRU.
  by_count.Put("c", 3, Value("C"), 1);
  EXPECT_EQ(ResidentValues(by_count), (std::vector<std::string>{"C", "A"}));
  EXPECT_EQ(by_count.Stats().evictions, 1u);

  Cache by_bytes(25, 0, kNames);
  by_bytes.Put("a", 1, Value("A"), 10);
  by_bytes.Put("b", 2, Value("B"), 10);
  by_bytes.Put("c", 3, Value("C"), 10);  // 30 > 25: a goes.
  EXPECT_EQ(ResidentValues(by_bytes), (std::vector<std::string>{"C", "B"}));
  EXPECT_EQ(by_bytes.Stats().resident_bytes, 20u);
  // A value larger than the whole bound evicts everything else but stays.
  by_bytes.Put("big", 4, Value("BIG"), 100);
  EXPECT_EQ(ResidentValues(by_bytes), (std::vector<std::string>{"BIG"}));
  const LruStats stats = by_bytes.Stats();
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(stats.resident_bytes, 100u);
  EXPECT_NE(by_bytes.Get("big"), nullptr);
}

TEST(LruCacheTest, EvictedValuesOutliveTheirEntryWhileHeld) {
  Cache cache(0, 1, kNames);
  cache.Put("a", 1, Value("A"), 1);
  std::shared_ptr<const std::string> held = cache.Get("a");
  cache.Put("b", 2, Value("B"), 1);
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(*held, "A");
}

TEST(LruCacheTest, RecordsUnderTheCachesMetricNames) {
  obs::SetEnabled(true);
  obs::MetricsSink sink;
  {
    obs::MetricsScope scope(sink);
    Cache cache(0, 1, kNames);
    bool hit = true;
    cache.GetOrBuild("a", 1, Builder("A", 7), &hit);
    EXPECT_FALSE(hit);
    cache.GetOrBuild("a", 1, Builder("unused"), &hit);
    EXPECT_TRUE(hit);
    cache.Put("b", 2, Value("B"), 5);  // Evicts a.
  }
  std::map<std::string, double> values;
  for (const obs::MetricSample& sample : sink.Snapshot()) {
    values[sample.name] = sample.value;
  }
  EXPECT_EQ(values["t.hit"], 1.0);
  EXPECT_EQ(values["t.miss"], 1.0);
  EXPECT_EQ(values["t.eviction"], 1.0);
  EXPECT_EQ(values["t.resident_bytes"], 7.0);  // Gauge: the high-water mark.
}

TEST(LruCacheTest, ConcurrentMissesOnOneKeyBuildOnce) {
  Cache cache(0, 0, kNames);
  std::atomic<int> builds{0};
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> hits{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      bool hit = false;
      std::shared_ptr<const std::string> value = cache.GetOrBuild(
          "k", 1,
          [&] {
            ++builds;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return std::pair(Value("built"), std::size_t{1});
          },
          &hit);
      EXPECT_EQ(*value, "built");
      if (hit) ++hits;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(hits.load(), kThreads - 1);
  const LruStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(LruCacheTest, BuildInFlightBlocksNeitherHitsNorStats) {
  Cache cache(0, 0, kNames);
  cache.Put("warm", 1, Value("W"), 1);
  std::latch building(1);
  std::latch release(1);
  std::thread builder([&] {
    bool hit = true;
    cache.GetOrBuild(
        "cold", 2,
        [&] {
          building.count_down();
          release.wait();  // Parked until the main thread has checked.
          return std::pair(Value("C"), std::size_t{1});
        },
        &hit);
    EXPECT_FALSE(hit);
  });
  building.wait();
  // Run the probes on a helper thread so a regression (a build holding
  // the index lock) fails on the timeout instead of hanging the test.
  std::future<bool> probes = std::async(std::launch::async, [&] {
    const bool warm_hit = cache.Get("warm") != nullptr;
    const LruStats stats = cache.Stats();
    return warm_hit && stats.hits == 1 && stats.misses == 1 &&
           stats.entries == 1 && cache.Entries().size() == 1;
  });
  const bool returned = probes.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  release.count_down();
  builder.join();
  ASSERT_TRUE(returned) << "a hit or Stats() waited on the build";
  EXPECT_TRUE(probes.get());
  EXPECT_EQ(cache.Stats().entries, 2u);
}

}  // namespace
}  // namespace campion::server
