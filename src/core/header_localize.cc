#include "core/header_localize.h"

#include <algorithm>
#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace campion::core {

// GetMatch's intermediate result: a range minus nested terms.
struct HeaderLocalizer::MatchTerm {
  util::PrefixRange range;
  std::vector<MatchTerm> subtracted;
};

namespace {
constexpr bdd::BddRef kUncomputed = ~bdd::BddRef{0};
}  // namespace

PrefixRangeDag BuildLocalizeDag(std::vector<util::PrefixRange> ranges,
                                util::PrefixRange universe) {
  obs::ScopedSpan span("localize_dag");
  span.AddAttr("ranges", static_cast<double>(ranges.size()));
  PrefixRangeDag dag(std::move(ranges), universe);
  span.AddAttr("dag_nodes", static_cast<double>(dag.size()));
  obs::Count("localize.dag_builds");
  return dag;
}

HeaderLocalizer::HeaderLocalizer(bdd::BddManager& mgr,
                                 const PrefixRangeDag& dag,
                                 RangeToBdd range_to_bdd)
    : mgr_(mgr),
      dag_(dag),
      range_to_bdd_(std::move(range_to_bdd)),
      node_bdds_(dag.size(), kUncomputed) {}

HeaderLocalizeResult HeaderLocalizer::Localize(bdd::BddRef set) {
  obs::ScopedSpan span("header_localize");
  obs::Count("localize.calls");
  // Work within the universe: S may be a complement reaching outside it.
  bdd::BddRef clipped = mgr_.And(set, NodeBdd(dag_.root()));
  HeaderLocalizeResult result;
  if (clipped == bdd::kFalse) return result;
  for (const auto& term : GetMatch(clipped, dag_.root())) {
    FlattenInto(term, result.terms);
  }
  span.AddAttr("dag_nodes", static_cast<double>(dag_.size()));
  span.AddAttr("terms", static_cast<double>(result.terms.size()));
  obs::Count("localize.terms", static_cast<double>(result.terms.size()));
  return result;
}

// The GetMatch recursion of §3.2.
std::vector<HeaderLocalizer::MatchTerm> HeaderLocalizer::GetMatch(
    bdd::BddRef set, std::size_t node) {
  bdd::BddRef node_bdd = NodeBdd(node);
  // Short-circuits (these also keep the output minimal): a node disjoint
  // from S contributes nothing; a node fully inside S is itself a term.
  if (!mgr_.Intersects(node_bdd, set)) return {};
  if (mgr_.Subset(node_bdd, set)) return {{dag_.label(node), {}}};

  if (dag_.IsLeaf(node)) {
    // By construction (S built from the DAG's ranges) a leaf is contained
    // in S or disjoint from it; both cases were handled above. If S used a
    // range we were not given, fall back to reporting the overlap.
    return {{dag_.label(node), {}}};
  }

  if (RemainderInside(node, set)) {
    // R's remainder is in S: include R, minus the child parts not in S.
    MatchTerm term{dag_.label(node), {}};
    for (std::size_t child : dag_.children(node)) {
      auto nonmatches = GetMatch(mgr_.Not(set), child);
      term.subtracted.insert(term.subtracted.end(), nonmatches.begin(),
                             nonmatches.end());
    }
    return {std::move(term)};
  }
  // Otherwise recurse and union the children's results.
  std::vector<MatchTerm> result;
  for (std::size_t child : dag_.children(node)) {
    auto sub = GetMatch(set, child);
    result.insert(result.end(), sub.begin(), sub.end());
  }
  return result;
}

bdd::BddRef HeaderLocalizer::NodeBdd(std::size_t node) {
  if (node_bdds_[node] == kUncomputed) {
    node_bdds_[node] = range_to_bdd_(dag_.label(node));
  }
  return node_bdds_[node];
}

// Whether the remainder of `node` (its range minus its children) lies in S,
// decided without building the remainder: the children must cover node ∖ S.
// One path of node ∖ S that meets no child lies in the remainder and
// outside S, which refutes this at once; that is the usual answer at the
// root when S is small. Otherwise the children are subtracted from node ∖ S
// until nothing is left, which is cheap when S covers most of the node.
bool HeaderLocalizer::RemainderInside(std::size_t node, bdd::BddRef set) {
  bdd::BddRef outside = mgr_.Diff(NodeBdd(node), set);
  bdd::BddRef path = bdd::kTrue;
  for (bdd::BddRef f = outside; f != bdd::kTrue;) {
    bdd::BddRef var = mgr_.VarTrue(mgr_.NodeVar(f));
    if (mgr_.NodeLow(f) != bdd::kFalse) {
      path = mgr_.And(path, mgr_.Not(var));
      f = mgr_.NodeLow(f);
    } else {
      path = mgr_.And(path, var);
      f = mgr_.NodeHigh(f);
    }
  }
  const std::vector<std::size_t>& children = dag_.children(node);
  if (std::none_of(children.begin(), children.end(), [&](std::size_t child) {
        return mgr_.Intersects(path, NodeBdd(child));
      })) {
    return false;
  }
  for (std::size_t child : children) {
    outside = mgr_.Diff(outside, NodeBdd(child));
    if (outside == bdd::kFalse) return true;
  }
  return false;
}

// Removes nested differences: R − (X − Y) becomes {R − X, Y} (Y ⊆ X ⊆ R and
// Y ⊆ S make this sound). One pass over the term tree, as in the paper.
void HeaderLocalizer::FlattenInto(const MatchTerm& term,
                                  std::vector<util::PrefixRangeTerm>& out) {
  util::PrefixRangeTerm flat{term.range, {}};
  for (const auto& sub : term.subtracted) {
    flat.exclude.push_back(sub.range);
  }
  std::sort(flat.exclude.begin(), flat.exclude.end());
  out.push_back(std::move(flat));
  for (const auto& sub : term.subtracted) {
    for (const auto& nested : sub.subtracted) {
      FlattenInto(nested, out);
    }
  }
}

std::vector<util::PrefixRange> HeaderLocalizeResult::IncludedRanges() const {
  std::set<util::PrefixRange> seen;
  std::vector<util::PrefixRange> out;
  for (const auto& term : terms) {
    if (seen.insert(term.include).second) out.push_back(term.include);
  }
  return out;
}

std::vector<util::PrefixRange> HeaderLocalizeResult::ExcludedRanges() const {
  std::set<util::PrefixRange> seen;
  std::vector<util::PrefixRange> out;
  for (const auto& term : terms) {
    for (const auto& x : term.exclude) {
      if (seen.insert(x).second) out.push_back(x);
    }
  }
  return out;
}

std::string HeaderLocalizeResult::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += "\n";
    out += terms[i].ToString();
  }
  return out;
}

HeaderLocalizeResult HeaderLocalize(bdd::BddManager& mgr, bdd::BddRef set,
                                    std::vector<util::PrefixRange> ranges,
                                    const RangeToBdd& range_to_bdd,
                                    util::PrefixRange universe) {
  PrefixRangeDag dag = BuildLocalizeDag(std::move(ranges), universe);
  return HeaderLocalizer(mgr, dag, range_to_bdd).Localize(set);
}

}  // namespace campion::core
