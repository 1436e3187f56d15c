#pragma once

// HeaderLocalize (§3.2): turns the BDD of a difference's input set into a
// minimal, human-readable union of configuration prefix ranges and range
// differences — the "Included Prefixes" / "Excluded Prefixes" rows of the
// paper's output tables.
//
// The algorithm builds the prefix-range containment DAG (core/ddnf.h) over
// every range constant appearing in the two configurations, associates each
// node with its symbolic member set, and runs the recursive GetMatch
// traversal: a node whose remainder lies inside S contributes its range
// minus the children not in S (computed by recursing on ¬S); otherwise the
// children are visited and their results unioned. A final pass removes
// nested differences, e.g. C − (F − G) becomes {C − F, G}.

#include <functional>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "core/ddnf.h"
#include "util/prefix_range.h"

namespace campion::core {

// Maps a prefix range to the BDD of its member set. HeaderLocalize is
// encoding-agnostic: route advertisements supply RouteAdvLayout's
// MatchPrefixRange, dataplane ACLs supply a destination-address encoding
// where ranges are (prefix, 32-32) address sets.
using RangeToBdd = std::function<bdd::BddRef(const util::PrefixRange&)>;

struct HeaderLocalizeResult {
  // S as a union of difference terms (include minus excludes).
  std::vector<util::PrefixRangeTerm> terms;

  // Flattened views for presentation: the union of all included ranges and
  // of all excluded ranges, as in the paper's tables.
  std::vector<util::PrefixRange> IncludedRanges() const;
  std::vector<util::PrefixRange> ExcludedRanges() const;

  std::string ToString() const;
};

// Builds the DAG that localizations share: one per comparison and address
// family for route maps, one per address field and pair for ACLs. Recorded
// as a `localize_dag` span and counted in `localize.dag_builds`.
PrefixRangeDag BuildLocalizeDag(std::vector<util::PrefixRange> ranges,
                                util::PrefixRange universe);

// Localizes sets over one DAG in one manager. Each node's BDD is encoded on
// first use and reused by every later Localize call, so a pair presenting
// several differences encodes each node at most once. The manager and the
// DAG must outlive the localizer. The held refs stay valid because pair
// managers only auto-sift in pin-all mode, which keeps every node
// (bdd/bdd.h, SetAutoSift).
class HeaderLocalizer {
 public:
  HeaderLocalizer(bdd::BddManager& mgr, const PrefixRangeDag& dag,
                  RangeToBdd range_to_bdd);

  // `set` must be a predicate over the prefix encoding only (project other
  // variables out first) and built from the DAG's ranges.
  HeaderLocalizeResult Localize(bdd::BddRef set);

 private:
  struct MatchTerm;
  std::vector<MatchTerm> GetMatch(bdd::BddRef set, std::size_t node);
  static void FlattenInto(const MatchTerm& term,
                          std::vector<util::PrefixRangeTerm>& out);
  bdd::BddRef NodeBdd(std::size_t node);
  bool RemainderInside(std::size_t node, bdd::BddRef set);

  bdd::BddManager& mgr_;
  const PrefixRangeDag& dag_;
  RangeToBdd range_to_bdd_;
  std::vector<bdd::BddRef> node_bdds_;
};

// One-shot localization that builds its own DAG. `ranges` must include
// every range constant used to build `set`. `universe` is the root range
// (the whole advertisement space for route maps; the all-/32s space for
// ACL destination addresses).
HeaderLocalizeResult HeaderLocalize(
    bdd::BddManager& mgr, bdd::BddRef set,
    std::vector<util::PrefixRange> ranges, const RangeToBdd& range_to_bdd,
    util::PrefixRange universe = util::PrefixRange::Universe());

}  // namespace campion::core
