#pragma once

// Incremental result cache: the fleet-scale re-diff shortcut.
//
// The template cache (template_cache.h) amortizes the encoding build; the
// whole pipeline after it — seeding pair managers, the semantic diff, the
// render — is still paid on every request. For fleet workloads that is the
// dominant cost: a 64-pair batch where one router changed re-pays 63
// identical diffs. This cache stores the RENDERED RESPONSE per pair,
// keyed by the full canonical serialization of both parsed configs
// (encode::ConfigCanonicalKey — PR 5 structural keys plus names, actions,
// declaration order, and source spans) concatenated with the diff-relevant
// options (the check_* set and the output format). A hit skips template
// fetch, diff, and render entirely, paying only the parse (cheap next to
// the semantic diff — the same trade the session store already makes).
//
// Soundness: the map keys on the FULL key string, not a digest, so a hit
// means the parsed IRs and options are literally identical — and parse and
// render are deterministic, so the cached body is byte-for-byte what a
// fresh run would produce. The FNV digest exists only for the flight
// recorder's result_key field and /debug/result_cache. Performance
// knobs (threads, template on/off, reorder) are deliberately NOT part of
// the key: the repo's determinism contract pins the body as byte-identical
// across all of them.
//
// Residency is bounded by the shared LRU (lru_cache.h): a bytes watermark
// over the stored bodies + keys, plus an optional entry cap.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "server/lru_cache.h"
#include "util/hash.h"

namespace campion::server {

class ResultCache {
 public:
  struct Options {
    // LRU eviction watermark over stored body + key bytes. 0 = unlimited.
    std::size_t max_resident_bytes = 64 * 1024 * 1024;
    std::size_t max_entries = 0;  // 0 = unlimited.
  };

  using Stats = LruStats;

  // One cached pair outcome: everything needed to replay the response
  // (body + headers) without re-running the pipeline.
  struct Result {
    std::string body;
    std::string content_type;
    bool equivalent = false;
    std::size_t differences = 0;
    // The template-cache disposition recorded when this result was
    // computed ("hit", "miss", or "off") — replayed in the
    // X-Campion-Template-Cache header so a warm response carries the same
    // provenance the original did.
    std::string template_cache;
    std::uint64_t template_key_hash = 0;
  };

  explicit ResultCache(const Options& options)
      : lru_(options.max_resident_bytes, options.max_entries,
             {"diff.result_cache_hits", "diff.result_cache_misses",
              "diff.result_cache_evictions",
              "diff.result_cache_resident_bytes"}) {}

  // Looks up the full key; null on a miss. Bumps hit/miss stats. `key_hash`,
  // when non-null, receives the FNV-1a digest of the key either way.
  std::shared_ptr<const Result> Get(const std::string& key,
                                    std::uint64_t* key_hash = nullptr) {
    if (key_hash != nullptr) *key_hash = util::Fnv1a64(key);
    return lru_.Get(key);
  }

  // Inserts a freshly computed result (a racing duplicate keeps the
  // incumbent — both computed byte-identical bodies) and enforces the
  // watermark.
  void Put(std::string key, std::shared_ptr<const Result> result) {
    const std::size_t bytes = key.size() + result->body.size() +
                              result->content_type.size() + sizeof(Result);
    const std::uint64_t digest = util::Fnv1a64(key);
    lru_.Put(std::move(key), digest, std::move(result), bytes);
  }

  Stats GetStats() const { return lru_.Stats(); }
  // For `GET /debug/result_cache`.
  std::vector<LruEntry<Result>> Entries() const { return lru_.Entries(); }

 private:
  LruCache<Result> lru_;
};

}  // namespace campion::server
