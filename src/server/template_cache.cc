#include "server/template_cache.h"

#include <set>
#include <sstream>
#include <utility>

#include "bdd/bdd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/hash.h"

namespace campion::server {

namespace {

void AppendStructuralKeys(const ir::RouterConfig& config,
                          std::set<std::string>& prefix_keys,
                          std::set<std::string>& community_keys,
                          std::set<std::string>& acl_keys) {
  for (const auto& [name, list] : config.prefix_lists) {
    prefix_keys.insert(encode::PrefixListKey(list));
  }
  for (const auto& [name, list] : config.community_lists) {
    community_keys.insert(encode::CommunityListKey(list));
  }
  for (const auto& [name, acl] : config.acls) {
    for (const auto& line : acl.lines) {
      acl_keys.insert(encode::AclLineMatchKey(line));
    }
  }
}

// Sum of both template managers' MemoryStats totals.
std::size_t ResidentBytes(const encode::EncodingTemplate& tmpl) {
  std::size_t bytes = 0;
  if (tmpl.has_route_side()) {
    bytes += tmpl.route_manager().MemoryStats().total_bytes;
  }
  if (tmpl.has_packet_side()) {
    bytes += tmpl.packet_manager().MemoryStats().total_bytes;
  }
  return bytes;
}

constexpr LruMetricNames kTemplateMetrics{
    "encode.template_cache_hit", "encode.template_cache_miss",
    "encode.template_cache_eviction", "encode.template_cache_resident_bytes"};

}  // namespace

std::string TemplateCacheKey(const ir::RouterConfig& config1,
                             const ir::RouterConfig& config2) {
  std::ostringstream key;
  // The community universe in layout order: the template concatenates
  // config1's then config2's sorted universes verbatim, and that vector is
  // what assigns community variables. Anything short of the exact sequence
  // could alias two different variable layouts under one key.
  key << "communities=";
  for (const auto& c : config1.AllCommunities()) key << c.ToString() << ',';
  key << '|';
  for (const auto& c : config2.AllCommunities()) key << c.ToString() << ',';
  // Structural keys as sets: the template dedupes across sides and ignores
  // declaration order, so the key does too.
  std::set<std::string> prefix_keys;
  std::set<std::string> community_keys;
  std::set<std::string> acl_keys;
  AppendStructuralKeys(config1, prefix_keys, community_keys, acl_keys);
  AppendStructuralKeys(config2, prefix_keys, community_keys, acl_keys);
  key << ";prefix_lists=";
  for (const auto& k : prefix_keys) key << k << '\036';
  key << ";community_lists=";
  for (const auto& k : community_keys) key << k << '\036';
  key << ";acl_lines=";
  for (const auto& k : acl_keys) key << k << '\036';
  return key.str();
}

TemplateCache::TemplateCache(const Options& options)
    : sift_mode_(core::ToSiftMode(options.reorder)),
      lru_(options.max_resident_bytes, options.max_entries, kTemplateMetrics) {}

std::shared_ptr<const encode::EncodingTemplate> TemplateCache::Get(
    const ir::RouterConfig& config1, const ir::RouterConfig& config2,
    bool* cache_hit, std::uint64_t* key_hash) {
  std::string key = TemplateCacheKey(config1, config2);
  const std::uint64_t digest = util::Fnv1a64(key);
  if (key_hash != nullptr) *key_hash = digest;
  // Build, sift once, compact: the resident copy holds only live nodes.
  auto build = [&] {
    auto tmpl = std::make_shared<encode::EncodingTemplate>(
        config1, config2, /*route_side=*/true, /*packet_side=*/true,
        /*sift_witnesses=*/sift_mode_.has_value());
    obs::ScopedSpan span("encode_template_cache_build",
                         config1.hostname + " vs " + config2.hostname);
    if (sift_mode_.has_value()) {
      bdd::SiftResult sift = tmpl->Reorder(*sift_mode_);
      span.AddAttr("sift_passes", static_cast<double>(sift.passes));
      span.AddAttr("sift_swaps", static_cast<double>(sift.swaps));
    }
    bdd::GcResult gc = tmpl->Compact();
    gc_reclaimed_nodes_ += gc.reclaimed;
    if (gc.arena_bytes_before > gc.arena_bytes_after) {
      gc_compacted_bytes_ += gc.arena_bytes_before - gc.arena_bytes_after;
    }
    span.AddAttr("gc_reclaimed_nodes", static_cast<double>(gc.reclaimed));
    obs::Count("bdd.gc_runs", 1.0);
    obs::Count("bdd.gc_reclaimed_nodes", static_cast<double>(gc.reclaimed));
    return std::pair(tmpl, ResidentBytes(*tmpl));
  };
  bool hit = false;
  std::shared_ptr<const encode::EncodingTemplate> tmpl =
      lru_.GetOrBuild(std::move(key), digest, build, &hit);
  if (cache_hit != nullptr) *cache_hit = hit;
  return tmpl;
}

TemplateCache::Stats TemplateCache::GetStats() const {
  return {lru_.Stats(), gc_reclaimed_nodes_.load(),
          gc_compacted_bytes_.load()};
}

}  // namespace campion::server
