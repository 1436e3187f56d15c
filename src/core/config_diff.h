#pragma once

// ConfigDiff (§3): the top-level driver. Pairs the two configurations'
// components with MatchPolicies, runs SemanticDiff on every route-map and
// ACL pair and StructuralDiff on everything else, and renders each
// difference with Present. This is the function behind Campion's
// command-line output.

#include <optional>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "core/match_policies.h"
#include "core/present.h"
#include "ir/config.h"

namespace campion::encode {
class EncodingTemplate;
}  // namespace campion::encode

namespace campion::obs {
class MetricsSink;
}  // namespace campion::obs

namespace campion::core {

struct DifferenceEntry {
  enum class Kind {
    kRouteMapSemantic,
    kAclSemantic,
    kStructural,
    kUnmatched,  // A component exists on one side only.
    kWarning,    // E.g. an undefined list referenced by a route map.
  };
  Kind kind = Kind::kRouteMapSemantic;
  std::string title;
  std::string rendered;  // Full table or message text.
  PresentedDifference detail;  // Structured fields (semantic/structural).
};

struct DiffOptions {
  bool check_route_maps = true;
  bool check_acls = true;
  bool check_static_routes = true;
  bool check_connected_routes = true;
  bool check_ospf = true;
  bool check_bgp_properties = true;
  bool check_admin_distances = true;
  // Worker threads for the per-pair semantic diffs: 0 = hardware
  // concurrency, 1 = fully serial. Each policy pair runs against its own
  // BddManager, and results are merged back in pair-declaration order, so
  // the report is byte-identical for every thread count.
  unsigned num_threads = 0;
  // Build a shared read-only encoding template before the pair fan-out:
  // each structurally distinct prefix list, community list, and ACL match
  // clause is encoded once, and every pair task seeds its manager from the
  // frozen template arena (src/encode/encoding_template.h). Purely a
  // performance lever — the report is byte-identical either way at every
  // thread count (CLI `--encoding_template=on|off` A/Bs it).
  bool use_encoding_template = true;
  // Dynamic variable reordering (Rudell sifting). kSift sifts individual
  // variables; kGroupSift moves each declared field block (32-bit address,
  // 16-bit port, ...) as one unit. When enabled and the encoding template
  // is in use, the template sifts ONCE on the main thread after it is
  // built — before it is frozen and shared — so every pair manager seeded
  // from it inherits the improved order; pair managers additionally
  // auto-sift when their live-node count grows past
  // `reorder_trigger_ratio` x the count at the last sift. Like the
  // template, reordering is purely a performance lever: the report is
  // byte-identical to kOff at every thread count (CLI `--reorder=...`
  // A/Bs it).
  enum class ReorderMode { kOff, kSift, kGroupSift };
  ReorderMode reorder = ReorderMode::kOff;
  // Auto-sift growth trigger for pair managers (clamped to >= 1.1 by the
  // kernel); only consulted when `reorder` is not kOff.
  double reorder_trigger_ratio = 2.0;
  // A pre-built frozen template to seed pair managers from, instead of
  // building one inside ConfigDiff. The daemon's cross-request cache hands
  // in the same template for every request that hits it, which is how the
  // one-time sift and compaction amortize. Must outlive the call, must
  // have been built for these two configurations (same structural keys and
  // community universe — the cache key guarantees it), and must have both
  // sides the enabled checks need. Ignored when null or when
  // `use_encoding_template` is false. Because any sound template yields
  // the same canonical BDDs, the report stays byte-identical to an
  // internally built template and to no template at all.
  const encode::EncodingTemplate* external_template = nullptr;
  // Scoped metrics capture: when set, ConfigDiff installs this sink on the
  // calling thread AND on every worker-pool task it fans out, so the whole
  // run's metrics land here instead of in the ambient sink
  // (obs::CurrentMetrics()). The daemon hands each request its own sink,
  // which is what lets requests run concurrently without interleaving
  // their counters; when null, ConfigDiff still propagates the calling
  // thread's current sink into its tasks, so a MetricsScope installed by
  // the caller captures the pooled work too. Purely observability — the
  // report is byte-identical either way.
  obs::MetricsSink* metrics_sink = nullptr;
};

struct DiffReport {
  std::vector<DifferenceEntry> entries;

  int CountOf(DifferenceEntry::Kind kind) const;
  bool Equivalent() const;  // No differences of any kind (warnings aside).
  std::string Render() const;
};

// The kernel sift mode a reorder option asks for; nullopt = reordering off.
std::optional<bdd::SiftMode> ToSiftMode(DiffOptions::ReorderMode mode);

DiffReport ConfigDiff(const ir::RouterConfig& config1,
                      const ir::RouterConfig& config2,
                      const DiffOptions& options = {});

// Diffs a single route-map pair (used directly by benchmarks and tests; an
// empty name stands for "no policy" = accept everything unmodified).
std::vector<PresentedDifference> DiffRouteMapPair(
    const ir::RouterConfig& config1, const std::string& name1,
    const ir::RouterConfig& config2, const std::string& name2);

// Diffs a single ACL pair by name.
std::vector<PresentedDifference> DiffAclPair(const ir::RouterConfig& config1,
                                             const ir::RouterConfig& config2,
                                             const std::string& name);

}  // namespace campion::core
