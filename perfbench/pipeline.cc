#include "pipeline.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "baseline/monolithic.h"
#include "bdd/bdd.h"
#include "core/ddnf.h"
#include "core/header_localize.h"
#include "core/match_policies.h"
#include "core/present.h"
#include "core/semantic_diff.h"
#include "core/structural_diff.h"
#include "encode/encoding_template.h"
#include "encode/fingerprint.h"
#include "encode/packet.h"
#include "encode/route_adv.h"
#include "frontend/loader.h"
#include "util/json.h"

namespace perfbench {

using namespace campion;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

// ---------------------------------------------------------------------------
// SpanLog
// ---------------------------------------------------------------------------

int SpanLog::Open(const char* name) {
  std::lock_guard<std::mutex> lock(mutex_);
  BenchSpan span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::Close(int id) {
  const std::uint64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::Record(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(BenchSpan{name, start_ns, end_ns, -1});
}

double SpanLog::Seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& span : spans_) {
    if (span.name == name) total += span.end_ns - span.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

std::size_t SpanLog::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const BenchSpan& s) { return s.name == name; }));
}

std::string SpanLog::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const BenchSpan& s = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"id\":" << i << ",\"name\":\"" << util::JsonEscape(s.name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << '}';
  }
  out << "]}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Untraced comparison
// ---------------------------------------------------------------------------

Comparison CompareOnce(const PairText& pair,
                       const core::DiffOptions& options) {
  Comparison out;
  out.config1 = frontend::LoadConfig(pair.text1, "config1").config;
  out.config2 = frontend::LoadConfig(pair.text2, "config2").config;
  const double start = NowSeconds();
  out.report = core::ConfigDiff(out.config1, out.config2, options);
  out.config_diff_s = NowSeconds() - start;
  out.rendered = out.report.Render();
  return out;
}

// ---------------------------------------------------------------------------
// Decomposed comparison. The helpers below restate, from public headers
// only, the small glue core::ConfigDiff keeps private (pass-through maps,
// pair families, title suffixes), so the decomposed report is the same
// report.
// ---------------------------------------------------------------------------

namespace {

ir::RouteMap PassThroughMap() {
  ir::RouteMap map;
  map.name = "(no policy)";
  map.default_action = ir::ClauseAction::kPermit;
  return map;
}

const ir::RouteMap* ResolveMap(const ir::RouterConfig& config,
                               const std::string& name,
                               const ir::RouteMap& fallback,
                               std::vector<std::string>* warnings) {
  if (name.empty()) return &fallback;
  const ir::RouteMap* map = config.FindRouteMap(name);
  if (map == nullptr) {
    if (warnings != nullptr) {
      warnings->push_back("route map " + name +
                          " referenced but not defined in " +
                          config.hostname + "; treating as accept-all");
    }
    return &fallback;
  }
  return map;
}

util::AddressFamily RouteMapFamily(const ir::RouterConfig& config,
                                   const ir::RouteMap& map) {
  for (const auto& clause : map.clauses) {
    for (const auto& match : clause.matches) {
      if (match.kind != ir::RouteMapMatch::Kind::kPrefixList) continue;
      for (const auto& name : match.names) {
        const ir::PrefixList* list = config.FindPrefixList(name);
        if (list != nullptr && list->family == util::AddressFamily::kIpv6) {
          return util::AddressFamily::kIpv6;
        }
      }
    }
  }
  return util::AddressFamily::kIpv4;
}

std::optional<bdd::SiftMode> SiftModeFor(core::DiffOptions::ReorderMode mode) {
  switch (mode) {
    case core::DiffOptions::ReorderMode::kOff:
      return std::nullopt;
    case core::DiffOptions::ReorderMode::kSift:
      return bdd::SiftMode::kVars;
    case core::DiffOptions::ReorderMode::kGroupSift:
      return bdd::SiftMode::kGroups;
  }
  return std::nullopt;
}

util::PrefixRange AddressUniverse(util::AddressFamily family) {
  const int width = util::AddressWidth(family);
  return util::PrefixRange(util::IpPrefix(family, util::U128(), 0), width,
                           width);
}

// The bytes a SeedFrom of `source` copies: its node arena and unique table.
void CountSeed(const bdd::BddManager& source, LayerCounts& counts) {
  bdd::BddMemoryStats mem = source.MemoryStats();
  counts.seeds += 1;
  counts.seed_bytes +=
      static_cast<double>(mem.node_arena_bytes + mem.unique_table_bytes);
}

void RecordManager(const bdd::BddManager& mgr, LayerCounts& counts) {
  bdd::BddStats stats = mgr.Stats();
  bdd::BddMemoryStats mem = mgr.MemoryStats();
  counts.unique_lookups += static_cast<double>(stats.unique_lookups);
  counts.unique_probes += static_cast<double>(stats.unique_probes);
  counts.cache_lookups += static_cast<double>(stats.cache_lookups);
  counts.cache_hits += static_cast<double>(stats.cache_hits);
  counts.peak_live_nodes = std::max(
      counts.peak_live_nodes, static_cast<double>(mem.peak_live_nodes));
  counts.mem_peak_bytes =
      std::max(counts.mem_peak_bytes, static_cast<double>(mem.total_bytes));
}

// Times HeaderLocalize and a PrefixRangeDag over the ranges it is given,
// exactly as Present* will call it for the same difference.
void LocalizeTraced(bdd::BddManager& mgr, bdd::BddRef projected,
                    std::vector<util::PrefixRange> ranges,
                    const core::RangeToBdd& range_to_bdd,
                    const util::PrefixRange& universe, SpanLog& log,
                    LayerCounts& counts) {
  counts.localize_calls += 1;
  counts.localize_ranges += static_cast<double>(ranges.size());
  {
    ScopedSpan span(log, "header_localize");
    core::HeaderLocalize(mgr, projected, ranges, range_to_bdd, universe);
  }
  ScopedSpan span(log, "header_localize.dag_build");
  core::PrefixRangeDag dag(std::move(ranges), universe);
  counts.dag_nodes += static_cast<double>(dag.size());
}

std::vector<core::PresentedDifference> RouteMapPairTraced(
    const ir::RouterConfig& config1, const std::string& name1,
    const ir::RouterConfig& config2, const std::string& name2,
    std::vector<std::string>* warnings, const encode::EncodingTemplate* tmpl,
    const core::DiffOptions& options, SpanLog& log, LayerCounts& counts) {
  ir::RouteMap fallback = PassThroughMap();
  const ir::RouteMap* map1 = ResolveMap(config1, name1, fallback, warnings);
  const ir::RouteMap* map2 = ResolveMap(config2, name2, fallback, warnings);
  util::AddressFamily family = RouteMapFamily(config1, *map1);
  if (family == util::AddressFamily::kIpv4) {
    family = RouteMapFamily(config2, *map2);
  }
  if (family != util::AddressFamily::kIpv4) tmpl = nullptr;

  bdd::BddManager mgr;
  std::optional<encode::RouteAdvLayout> layout;
  {
    ScopedSpan span(log, "bdd.seed");
    if (tmpl != nullptr) {
      mgr.SeedFrom(tmpl->route_manager());
      layout.emplace(mgr, tmpl->route_layout());
    } else {
      std::vector<util::Community> communities = config1.AllCommunities();
      auto more = config2.AllCommunities();
      communities.insert(communities.end(), more.begin(), more.end());
      layout.emplace(mgr, std::move(communities), family);
    }
    if (std::optional<bdd::SiftMode> mode = SiftModeFor(options.reorder)) {
      mgr.SetAutoSift(*mode, options.reorder_trigger_ratio);
    }
  }
  std::vector<core::RouteMapDifference> diffs;
  {
    ScopedSpan span(log, "semantic_diff.route_map");
    diffs = core::SemanticDiffRouteMaps(*layout, config1, *map1, config2,
                                        *map2, tmpl);
  }
  if (tmpl != nullptr) CountSeed(tmpl->route_manager(), counts);
  std::vector<core::PresentedDifference> presented;
  for (const auto& diff : diffs) {
    bdd::BddRef prefix_set =
        mgr.Exists(diff.input_set, layout->NonPrefixVarMask());
    std::vector<util::PrefixRange> ranges = config1.AllPrefixRanges();
    auto ranges2 = config2.AllPrefixRanges();
    ranges.insert(ranges.end(), ranges2.begin(), ranges2.end());
    std::erase_if(ranges, [&](const util::PrefixRange& r) {
      return r.family() != layout->family();
    });
    LocalizeTraced(
        mgr, prefix_set, std::move(ranges),
        [&](const util::PrefixRange& r) { return layout->MatchPrefixRange(r); },
        util::PrefixRange::UniverseOf(layout->family()), log, counts);
    ScopedSpan span(log, "present");
    presented.push_back(core::PresentRouteMapDifference(
        *layout, diff, config1, config2, map1->name, map2->name));
  }
  RecordManager(mgr, counts);
  return presented;
}

std::vector<core::PresentedDifference> AclPairTraced(
    const ir::RouterConfig& config1, const ir::RouterConfig& config2,
    const std::string& name, const encode::EncodingTemplate* tmpl,
    const core::DiffOptions& options, SpanLog& log, LayerCounts& counts) {
  const ir::Acl* acl1 = config1.FindAcl(name);
  const ir::Acl* acl2 = config2.FindAcl(name);
  if (acl1 == nullptr || acl2 == nullptr) return {};
  if (acl1->family != acl2->family) return {};
  const bool v4 = acl1->family == util::AddressFamily::kIpv4;
  if (!v4) tmpl = nullptr;

  bdd::BddManager mgr;
  std::optional<encode::PacketLayout> layout;
  {
    ScopedSpan span(log, "bdd.seed");
    if (tmpl != nullptr) {
      mgr.SeedFrom(tmpl->packet_manager());
      layout.emplace(mgr, tmpl->packet_layout());
    } else {
      layout.emplace(mgr, acl1->family);
    }
    if (std::optional<bdd::SiftMode> mode = SiftModeFor(options.reorder)) {
      mgr.SetAutoSift(*mode, options.reorder_trigger_ratio);
    }
  }
  std::vector<core::AclDifference> diffs;
  {
    ScopedSpan span(log, v4 ? "semantic_diff.acl_v4" : "semantic_diff.acl_v6");
    diffs = core::SemanticDiffAcls(*layout, *acl1, *acl2, {}, tmpl);
  }
  if (tmpl != nullptr) CountSeed(tmpl->packet_manager(), counts);
  const util::PrefixRange universe = AddressUniverse(layout->family());
  std::vector<core::PresentedDifference> presented;
  for (const auto& diff : diffs) {
    auto localize = [&](const std::vector<bool>& keep_mask,
                        std::vector<util::PrefixRange> ranges,
                        const core::RangeToBdd& range_to_bdd) {
      std::vector<bool> quantified = keep_mask;
      quantified.flip();
      bdd::BddRef projected = mgr.Exists(diff.input_set, quantified);
      LocalizeTraced(mgr, projected, std::move(ranges), range_to_bdd,
                     universe, log, counts);
    };
    std::vector<util::PrefixRange> dst = core::AclDstRanges(*acl1);
    auto dst2 = core::AclDstRanges(*acl2);
    dst.insert(dst.end(), dst2.begin(), dst2.end());
    localize(layout->DstIpVarMask(), std::move(dst),
             [&](const util::PrefixRange& r) {
               return layout->MatchDstPrefix(r.prefix());
             });
    std::vector<util::PrefixRange> src = core::AclSrcRanges(*acl1);
    auto src2 = core::AclSrcRanges(*acl2);
    src.insert(src.end(), src2.begin(), src2.end());
    localize(layout->SrcIpVarMask(), std::move(src),
             [&](const util::PrefixRange& r) {
               return layout->MatchSrcPrefix(r.prefix());
             });
    ScopedSpan span(log, "present");
    presented.push_back(core::PresentAclDifference(*layout, diff, *acl1,
                                                   *acl2, config1, config2));
  }
  RecordManager(mgr, counts);
  return presented;
}

}  // namespace

std::string DecomposedCompare(const PairText& pair,
                              const DecomposeOptions& decompose, SpanLog& log,
                              LayerCounts& counts) {
  const core::DiffOptions& options = decompose.diff;
  ScopedSpan pair_span(log, "pair");
  counts.pairs += 1;
  frontend::LoadResult loaded1;
  frontend::LoadResult loaded2;
  {
    ScopedSpan span(log, "frontend.parse");
    loaded1 = frontend::LoadConfig(pair.text1, "config1");
    loaded2 = frontend::LoadConfig(pair.text2, "config2");
  }
  counts.parsed_bytes +=
      static_cast<double>(pair.text1.size() + pair.text2.size());
  const ir::RouterConfig& config1 = loaded1.config;
  const ir::RouterConfig& config2 = loaded2.config;
  {
    ScopedSpan span(log, "encode.fingerprint");
    encode::ConfigCanonicalKey(config1);
    encode::ConfigCanonicalKey(config2);
  }

  core::PolicyPairing pairing;
  {
    ScopedSpan span(log, "match_policies");
    pairing = core::MatchPolicies(config1, config2);
  }

  const bool want_route_maps =
      options.check_route_maps &&
      (!pairing.route_maps.empty() || !pairing.redistributions.empty());
  const bool want_acls = options.check_acls && !pairing.acls.empty();
  std::optional<encode::EncodingTemplate> tmpl;
  if (options.use_encoding_template && (want_route_maps || want_acls)) {
    const std::optional<bdd::SiftMode> sift = SiftModeFor(options.reorder);
    {
      ScopedSpan span(log, "encode.template_build");
      tmpl.emplace(config1, config2,
                   decompose.daemon_template || want_route_maps,
                   decompose.daemon_template || want_acls, sift.has_value());
    }
    if (sift) {
      ScopedSpan span(log, "bdd.sift");
      tmpl->Reorder(*sift);
    }
    if (decompose.daemon_template) {
      ScopedSpan span(log, "encode.template_compact");
      tmpl->Compact();
    }
    counts.templates += 1;
    if (tmpl->has_route_side()) {
      counts.template_nodes +=
          static_cast<double>(tmpl->route_manager().ArenaSize());
    }
    if (tmpl->has_packet_side()) {
      counts.template_nodes +=
          static_cast<double>(tmpl->packet_manager().ArenaSize());
    }
  }
  const encode::EncodingTemplate* shared = tmpl ? &*tmpl : nullptr;

  core::DiffReport report;
  std::vector<std::string> warnings;
  auto add_semantic = [&](core::DifferenceEntry::Kind kind,
                          std::vector<core::PresentedDifference> diffs) {
    for (auto& d : diffs) {
      core::DifferenceEntry entry;
      entry.kind = kind;
      entry.title = d.title;
      entry.rendered = d.table;
      entry.detail = std::move(d);
      report.entries.push_back(std::move(entry));
      counts.differences += 1;
    }
  };
  if (options.check_route_maps) {
    std::set<std::pair<std::string, std::string>> seen;
    for (const auto& rm : pairing.route_maps) {
      if (!seen.insert({rm.name1, rm.name2}).second) continue;
      auto diffs = RouteMapPairTraced(config1, rm.name1, config2, rm.name2,
                                      &warnings, shared, options, log, counts);
      for (auto& d : diffs) {
        d.title += " (neighbor " + rm.neighbor.ToString() + ", " +
                   core::ToString(rm.direction) + ")";
      }
      add_semantic(core::DifferenceEntry::Kind::kRouteMapSemantic,
                   std::move(diffs));
    }
    for (const auto& rd : pairing.redistributions) {
      auto diffs = RouteMapPairTraced(config1, rd.name1, config2, rd.name2,
                                      &warnings, shared, options, log, counts);
      for (auto& d : diffs) {
        d.title += " (redistribution of " + ir::ToString(rd.from) + " into " +
                   ir::ToString(rd.via) + ")";
      }
      add_semantic(core::DifferenceEntry::Kind::kRouteMapSemantic,
                   std::move(diffs));
    }
  }
  if (options.check_acls) {
    for (const auto& acl : pairing.acls) {
      add_semantic(core::DifferenceEntry::Kind::kAclSemantic,
                   AclPairTraced(config1, config2, acl.name, shared, options,
                                 log, counts));
    }
  }

  {
    ScopedSpan span(log, "structural");
    auto structural = [&](bool enabled,
                          const std::function<
                              std::vector<core::StructuralDifference>()>& run) {
      if (!enabled) return;
      for (const auto& d : run()) {
        core::PresentedDifference presented =
            core::PresentStructuralDifference(d, config1, config2);
        core::DifferenceEntry entry;
        entry.kind = core::DifferenceEntry::Kind::kStructural;
        entry.title = presented.title;
        entry.rendered = presented.table;
        entry.detail = std::move(presented);
        report.entries.push_back(std::move(entry));
      }
    };
    structural(options.check_static_routes,
               [&] { return core::DiffStaticRoutes(config1, config2); });
    structural(options.check_connected_routes,
               [&] { return core::DiffConnectedRoutes(config1, config2); });
    structural(options.check_ospf, [&] {
      return core::DiffOspf(config1, config2, pairing.interfaces);
    });
    structural(options.check_bgp_properties,
               [&] { return core::DiffBgpProperties(config1, config2); });
    structural(options.check_admin_distances,
               [&] { return core::DiffAdminDistances(config1, config2); });
  }
  for (const auto& note : pairing.unmatched) {
    core::DifferenceEntry entry;
    entry.kind = core::DifferenceEntry::Kind::kUnmatched;
    entry.title = "Unmatched component";
    entry.rendered = note + "\n";
    report.entries.push_back(std::move(entry));
  }
  for (const auto& warning : warnings) {
    core::DifferenceEntry entry;
    entry.kind = core::DifferenceEntry::Kind::kWarning;
    entry.title = "Warning";
    entry.rendered = warning + "\n";
    report.entries.push_back(std::move(entry));
  }
  ScopedSpan span(log, "render");
  return report.Render();
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

namespace {

// True when the report holds an entry of `kind` whose title is `title`
// (or, for route maps, starts with it: ConfigDiff appends the neighbor).
bool ReportHasEntry(const core::DiffReport& report,
                    core::DifferenceEntry::Kind kind, const std::string& title,
                    bool prefix) {
  for (const auto& entry : report.entries) {
    if (entry.kind != kind) continue;
    if (prefix ? entry.title.rfind(title, 0) == 0 : entry.title == title) {
      return true;
    }
  }
  return false;
}

// baseline::MonolithicAclChecker encodes over the IPv4 packet layout only;
// for IPv6 ACLs the same monolithic question (do the first-match permit
// sets differ anywhere?) is asked over the 128-bit layout here.
bool MonolithicAclsDiffer(const ir::Acl& acl1, const ir::Acl& acl2) {
  if (acl1.family == util::AddressFamily::kIpv4) {
    return !baseline::MonolithicAclChecker(acl1, acl2).Equivalent();
  }
  bdd::BddManager mgr;
  encode::PacketLayout layout(mgr, acl1.family);
  auto permits = [&](const ir::Acl& acl) {
    bdd::BddRef permitted = mgr.False();
    bdd::BddRef remaining = mgr.True();
    for (const auto& line : acl.lines) {
      bdd::BddRef here = mgr.And(remaining, layout.MatchLine(line));
      if (line.action == ir::LineAction::kPermit) {
        permitted = mgr.Or(permitted, here);
      }
      remaining = mgr.Diff(remaining, here);
    }
    return permitted;
  };
  return !(permits(acl1) == permits(acl2));
}

}  // namespace

int CheckVerdicts(const ir::RouterConfig& config1,
                  const ir::RouterConfig& config2,
                  const core::DiffReport& report, bool flip_first,
                  std::vector<std::string>* errors) {
  const core::PolicyPairing pairing = core::MatchPolicies(config1, config2);
  int checked = 0;
  auto check = [&](const std::string& what, bool campion_differs,
                   bool oracle_differs) {
    if (flip_first && checked == 0) oracle_differs = !oracle_differs;
    ++checked;
    if (campion_differs != oracle_differs) {
      errors->push_back(what + ": Campion reports " +
                        (campion_differs ? "different" : "equivalent") +
                        ", the monolithic oracle " +
                        (oracle_differs ? "different" : "equivalent"));
    }
  };

  const ir::RouteMap fallback = PassThroughMap();
  auto resolve = [&](const ir::RouterConfig& config, const std::string& name) {
    const ir::RouteMap* map = name.empty() ? nullptr : config.FindRouteMap(name);
    return map != nullptr ? map : &fallback;
  };
  std::set<std::pair<std::string, std::string>> seen;
  auto check_maps = [&](const std::string& name1, const std::string& name2) {
    if (!seen.insert({name1, name2}).second) return;
    const ir::RouteMap* map1 = resolve(config1, name1);
    const ir::RouteMap* map2 = resolve(config2, name2);
    // The monolithic route-map checker encodes IPv4 advertisements only.
    if (RouteMapFamily(config1, *map1) != util::AddressFamily::kIpv4 ||
        RouteMapFamily(config2, *map2) != util::AddressFamily::kIpv4) {
      return;
    }
    const std::string title = "Route map difference: " + map1->name + " vs " +
                              map2->name + " (";
    check("route maps " + map1->name + " vs " + map2->name,
          ReportHasEntry(report,
                         core::DifferenceEntry::Kind::kRouteMapSemantic,
                         title, /*prefix=*/true),
          !baseline::MonolithicRouteMapChecker(config1, *map1, config2, *map2)
               .Equivalent());
  };
  for (const auto& rm : pairing.route_maps) check_maps(rm.name1, rm.name2);
  for (const auto& rd : pairing.redistributions) {
    check_maps(rd.name1, rd.name2);
  }
  for (const auto& pair : pairing.acls) {
    const ir::Acl* acl1 = config1.FindAcl(pair.name);
    const ir::Acl* acl2 = config2.FindAcl(pair.name);
    if (acl1 == nullptr || acl2 == nullptr || acl1->family != acl2->family) {
      continue;
    }
    check("ACL " + pair.name,
          ReportHasEntry(report, core::DifferenceEntry::Kind::kAclSemantic,
                         "ACL difference: " + pair.name, /*prefix=*/false),
          MonolithicAclsDiffer(*acl1, *acl2));
  }
  return checked;
}

}  // namespace perfbench
