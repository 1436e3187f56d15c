#pragma once

// The one LRU behind both daemon caches (template_cache.h holds frozen
// encoding templates, result_cache.h rendered responses): thread-safe,
// bounded by summed resident bytes and by entry count.
//
// Keys are stored once. Each slot of the recency list owns its key string
// and the index maps a string_view of that key to the slot, so a hit moves
// the slot to the front with splice: no key copy and no allocation, which
// matters for result keys (the full canonical text of two configs).
//
// Values are shared_ptr<const V>: eviction drops only the cache's
// reference, and a request still holding the value keeps it alive.
// Eviction drops least-recently-used entries while either bound is
// exceeded (0 = unbounded), but never the entry just inserted: a bound
// smaller than one value must still serve the request that built it.
//
// GetOrBuild runs its builder under a build mutex, not the index mutex, so
// hits, Stats() and Entries() proceed while a build is in flight. It
// re-checks the index after taking the build mutex, so concurrent misses
// on one key build once.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace campion::server {

// Each cache's obs metric names, recorded into the caller's ambient sink.
struct LruMetricNames {
  const char* hit;
  const char* miss;
  const char* eviction;
  const char* resident_bytes;  // Gauge, raised after every insert.
};

struct LruStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t resident_bytes = 0;
};

// One resident entry, as Entries() lists it.
template <typename V>
struct LruEntry {
  std::uint64_t key_hash = 0;  // FNV-1a digest of the key.
  std::size_t resident_bytes = 0;
  std::uint64_t hits = 0;  // Lookups this entry served.
  std::uint64_t seq = 0;   // Insert counter (1 = oldest since start): a
                           // clock-free stand-in for age.
  std::shared_ptr<const V> value;
};

template <typename V>
class LruCache {
 public:
  LruCache(std::size_t max_resident_bytes, std::size_t max_entries,
           const LruMetricNames& names)
      : max_resident_bytes_(max_resident_bytes),
        max_entries_(max_entries),
        names_(names) {}

  // The value under `key`, now most recently used; null on a miss.
  std::shared_ptr<const V> Get(std::string_view key) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (std::shared_ptr<const V> value = HitLocked(key)) return value;
    ++stats_.misses;
    obs::Count(names_.miss);
    return nullptr;
  }

  // Inserts `value`, charged `bytes`. A key already present (a racing
  // duplicate computed the same value) keeps its incumbent and is only
  // moved to the front.
  void Put(std::string key, std::uint64_t key_hash,
           std::shared_ptr<const V> value, std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    InsertLocked(std::move(key), key_hash, std::move(value), bytes);
  }

  // Get, or on a miss `build()` -> {value, resident bytes} and insert it.
  // `hit` receives which happened.
  template <typename Build>
  std::shared_ptr<const V> GetOrBuild(std::string key, std::uint64_t key_hash,
                                      Build&& build, bool* hit) {
    *hit = true;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (std::shared_ptr<const V> value = HitLocked(key)) return value;
    }
    std::lock_guard<std::mutex> build_lock(build_mutex_);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // A concurrent miss may have built it while this one waited.
      if (std::shared_ptr<const V> value = HitLocked(key)) return value;
      ++stats_.misses;
    }
    *hit = false;
    obs::Count(names_.miss);
    auto [value, bytes] = build();
    std::lock_guard<std::mutex> lock(mutex_);
    InsertLocked(std::move(key), key_hash, value, bytes);
    return value;
  }

  LruStats Stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    LruStats stats = stats_;
    stats.entries = lru_.size();
    return stats;
  }

  // Every resident entry, most recently used first.
  std::vector<LruEntry<V>> Entries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<LruEntry<V>> entries;
    entries.reserve(lru_.size());
    for (const Slot& slot : lru_) entries.push_back(slot.entry);
    return entries;
  }

 private:
  struct Slot {
    std::string key;
    LruEntry<V> entry;
  };
  using Slots = std::list<Slot>;

  std::shared_ptr<const V> HitLocked(std::string_view key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    ++it->second->entry.hits;
    obs::Count(names_.hit);
    return it->second->entry.value;
  }

  void InsertLocked(std::string key, std::uint64_t key_hash,
                    std::shared_ptr<const V> value, std::size_t bytes) {
    lru_.push_front({std::move(key),
                     {key_hash, bytes, 0, ++insert_seq_, std::move(value)}});
    index_.emplace(lru_.front().key, lru_.begin());
    stats_.resident_bytes += bytes;
    auto over_bound = [this] {
      return (max_entries_ != 0 && lru_.size() > max_entries_) ||
             (max_resident_bytes_ != 0 &&
              stats_.resident_bytes > max_resident_bytes_);
    };
    while (lru_.size() > 1 && over_bound()) {
      const Slot& victim = lru_.back();
      stats_.resident_bytes -= victim.entry.resident_bytes;
      index_.erase(victim.key);  // Before the slot that owns the key dies.
      lru_.pop_back();
      ++stats_.evictions;
      obs::Count(names_.eviction);
    }
    obs::MaxGauge(names_.resident_bytes,
                  static_cast<double>(stats_.resident_bytes));
  }

  const std::size_t max_resident_bytes_;
  const std::size_t max_entries_;
  const LruMetricNames names_;
  std::mutex build_mutex_;  // Serializes GetOrBuild's builders.
  mutable std::mutex mutex_;  // Guards everything below.
  Slots lru_;                 // Front = most recently used.
  std::unordered_map<std::string_view, typename Slots::iterator> index_;
  LruStats stats_;  // `entries` is read off lru_.size().
  std::uint64_t insert_seq_ = 0;
};

}  // namespace campion::server
