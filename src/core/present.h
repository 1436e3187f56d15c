#pragma once

// Present (§3): formats differences for the user. Semantic differences get
// header localization — the Included/Excluded Prefixes rows of the paper's
// Table 2 — plus a single concrete example for route fields HeaderLocalize
// does not enumerate (communities, and protocol/ports for ACLs), then the
// Action and Text rows for text localization.

#include <optional>
#include <string>
#include <vector>

#include "core/header_localize.h"
#include "core/semantic_diff.h"
#include "core/structural_diff.h"
#include "encode/packet.h"
#include "encode/route_adv.h"
#include "ir/config.h"

namespace campion::core {

// A fully rendered difference plus its structured fields, so tests and
// downstream tooling can assert on content without re-parsing tables.
struct PresentedDifference {
  std::string title;
  std::string table;  // Rendered fixed-width table.

  std::vector<util::PrefixRange> included;
  std::vector<util::PrefixRange> excluded;
  // For ACL differences, the source-address localization.
  std::vector<util::PrefixRange> src_included;
  std::vector<util::PrefixRange> src_excluded;
  // For ACL differences, the exact affected protocols and destination
  // ports (empty when the whole space is affected — then the row is
  // omitted as uninformative).
  std::vector<ir::PortRange> protocols;
  std::vector<ir::PortRange> dst_ports;
  std::optional<std::string> example;  // Concrete example for other fields.
  std::string action1, action2;
  std::string text1, text2;
  // Source locations ("router.cfg:7-8") of the responsible text, when the
  // IR carries spans with line numbers (parsed configs do; generated IR
  // leaves these empty). Surfaced in the JSON report.
  std::string location1, location2;
};

// The DAG route-map differences of `family` are localized over: every
// prefix range of both configurations in that family. ConfigDiff builds it
// once per comparison and shares it read-only with every pair.
PrefixRangeDag RouteMapRangeDag(const ir::RouterConfig& config1,
                                const ir::RouterConfig& config2,
                                util::AddressFamily family);

// A localizer for one route-map pair: `dag` must be the RouteMapRangeDag of
// the layout's family. It lives as long as the pair's manager, so node BDDs
// are encoded once per pair, not once per difference.
HeaderLocalizer RouteMapLocalizer(encode::RouteAdvLayout& layout,
                                  const PrefixRangeDag& dag);

PresentedDifference PresentRouteMapDifference(
    encode::RouteAdvLayout& layout, HeaderLocalizer& localizer,
    const RouteMapDifference& diff, const ir::RouterConfig& config1,
    const ir::RouterConfig& config2, const std::string& policy1,
    const std::string& policy2);

// Presents one difference on its own: builds the RouteMapRangeDag and a
// localizer for this call only.
PresentedDifference PresentRouteMapDifference(
    encode::RouteAdvLayout& layout, const RouteMapDifference& diff,
    const ir::RouterConfig& config1, const ir::RouterConfig& config2,
    const std::string& policy1, const std::string& policy2);

// The destination- and source-address localizers of one ACL pair. Both
// DAGs are built on construction, over the prefixes both ACLs mention, so
// a pair builds them once and reuses them (and their node BDDs) for every
// difference it presents.
class AclLocalizers {
 public:
  AclLocalizers(encode::PacketLayout& layout, const ir::Acl& acl1,
                const ir::Acl& acl2);
  AclLocalizers(const AclLocalizers&) = delete;
  AclLocalizers& operator=(const AclLocalizers&) = delete;

  HeaderLocalizer& dst() { return dst_; }
  HeaderLocalizer& src() { return src_; }

 private:
  PrefixRangeDag dst_dag_;
  PrefixRangeDag src_dag_;
  HeaderLocalizer dst_;
  HeaderLocalizer src_;
};

PresentedDifference PresentAclDifference(encode::PacketLayout& layout,
                                         AclLocalizers& localizers,
                                         const AclDifference& diff,
                                         const ir::Acl& acl1,
                                         const ir::Acl& acl2,
                                         const ir::RouterConfig& config1,
                                         const ir::RouterConfig& config2);

// Presents one difference on its own: builds AclLocalizers for this call
// only.
PresentedDifference PresentAclDifference(encode::PacketLayout& layout,
                                         const AclDifference& diff,
                                         const ir::Acl& acl1,
                                         const ir::Acl& acl2,
                                         const ir::RouterConfig& config1,
                                         const ir::RouterConfig& config2);

PresentedDifference PresentStructuralDifference(
    const StructuralDifference& diff, const ir::RouterConfig& config1,
    const ir::RouterConfig& config2);

// The destination (or source) prefixes mentioned by an ACL, as /32-window
// prefix ranges for HeaderLocalize. Non-prefix wildcards are skipped.
std::vector<util::PrefixRange> AclDstRanges(const ir::Acl& acl);
std::vector<util::PrefixRange> AclSrcRanges(const ir::Acl& acl);

}  // namespace campion::core
