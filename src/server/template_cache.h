#pragma once

// Cross-request encoding-template cache (the daemon's reason to exist).
//
// The one-shot pipeline builds an EncodingTemplate per invocation, sifts it
// when reordering is on, and throws both away at exit — the expensive parts
// of a comparison paid again on every run. A resident daemon can do better:
// the template's content is fully determined by the PR 5 canonical
// structural keys (which prefix lists / community lists / ACL match clauses
// exist, by structure, not by name) plus the community universe that fixes
// the route layout's variable assignment. Two requests whose configs agree
// on those produce byte-identical templates, so the cache keys on exactly
// that and hands the same frozen template to every matching request:
//
//   miss — build the template, sift it once (when the server runs with
//          reordering) and mark-and-compact both managers
//          (EncodingTemplate::Compact) so the resident copy holds only
//          live, densely packed nodes;
//   hit  — return the shared frozen template; the request seeds pair
//          managers from it (ConfigDiff's `external_template`) and skips
//          the build, the sift, and the GC entirely.
//
// Soundness: ConfigDiff consults the template only through key-based
// lookups, and a reduced ordered BDD is canonical per function and
// variable order — so a template built from a *different* config pair with
// the same key is indistinguishable from one built for this pair, and the
// report stays byte-identical to the template-off and CLI paths (pinned by
// tests/server/server_test.cc). The sift witnesses baked into the cached
// template came from the pair that built it; they only shaped the variable
// order, and every order yields the same report.
//
// Residency is bounded two ways: per-template compaction above, and the
// shared LRU (lru_cache.h) over the summed resident bytes of the template
// managers (MemoryStats) and, optionally, the entry count. `bench_serve`
// demonstrates the resulting flat memory profile over 100+ distinct-pair
// requests.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "core/config_diff.h"
#include "encode/encoding_template.h"
#include "ir/config.h"
#include "server/lru_cache.h"

namespace campion::server {

// The canonical cache key: the ordered community universe exactly as the
// template's route layout consumes it (config1's sorted communities, then
// config2's), followed by the sorted distinct structural keys of both
// configs' prefix lists, community lists, and ACL lines. Everything the
// frozen template's lookup surface depends on, nothing it doesn't (names,
// spans, route-map structure).
std::string TemplateCacheKey(const ir::RouterConfig& config1,
                             const ir::RouterConfig& config2);

class TemplateCache {
 public:
  struct Options {
    // Sift mode applied once per cached template at build time. kOff
    // skips the sift.
    core::DiffOptions::ReorderMode reorder =
        core::DiffOptions::ReorderMode::kOff;
    // LRU bounds: summed resident bytes of all cached templates and the
    // entry count. 0 = unbounded.
    std::size_t max_resident_bytes = 256 * 1024 * 1024;
    std::size_t max_entries = 0;
  };

  struct Stats : LruStats {
    // Cumulative GcResult tallies from per-template compactions.
    std::uint64_t gc_reclaimed_nodes = 0;
    std::uint64_t gc_compacted_bytes = 0;
  };

  explicit TemplateCache(const Options& options);

  // Returns the cached template for this pair's key, building it on a
  // miss. `cache_hit`, when non-null, reports which happened; `key_hash`,
  // when non-null, receives the FNV-1a digest of the canonical key (the
  // same digest /debug/cache and the flight recorder expose). The returned
  // pointer keeps the template alive even if eviction drops the entry
  // mid-request. Also records per-request metrics
  // (encode.template_cache_hit / _miss, and on a miss the build/sift/gc
  // spans) into the ambient obs context when tracing is enabled.
  std::shared_ptr<const encode::EncodingTemplate> Get(
      const ir::RouterConfig& config1, const ir::RouterConfig& config2,
      bool* cache_hit = nullptr, std::uint64_t* key_hash = nullptr);

  Stats GetStats() const;
  // For `GET /debug/cache`; `seq` is the entry's build order.
  std::vector<LruEntry<encode::EncodingTemplate>> Entries() const {
    return lru_.Entries();
  }

 private:
  const std::optional<bdd::SiftMode> sift_mode_;
  LruCache<encode::EncodingTemplate> lru_;
  std::atomic<std::uint64_t> gc_reclaimed_nodes_{0};
  std::atomic<std::uint64_t> gc_compacted_bytes_{0};
};

}  // namespace campion::server
