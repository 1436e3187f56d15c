#include "core/ddnf.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace campion::core {
namespace {

// Clamps the length window to the feasible [base length, family max] band so
// that semantically equal ranges have equal representations.
util::PrefixRange Normalize(const util::PrefixRange& r) {
  int low = std::max(r.low(), r.prefix().length());
  int high = std::min(r.high(), util::MaxPrefixLength(r.family()));
  return util::PrefixRange(r.prefix(), low, high);
}

// A length window [low, high] of one base prefix.
using Window = std::pair<int, int>;

// Calls `fn(ancestor)` for every prefix in `bases` that is a strict
// ancestor of `base`: the base truncated to each shorter length that some
// base has (`lengths`, ascending), looked up by exact match.
template <typename Map, typename Fn>
void ForEachAncestor(const Map& bases, const std::set<int>& lengths,
                     const util::IpPrefix& base, Fn&& fn) {
  for (int length : lengths) {
    if (length >= base.length()) break;
    auto it = bases.find(
        util::IpPrefix(base.family(), base.address().bits(), length));
    if (it != bases.end()) fn(it->second);
  }
}

}  // namespace

PrefixRangeDag::PrefixRangeDag(std::vector<util::PrefixRange> ranges,
                               util::PrefixRange universe) {
  universe = Normalize(universe);

  // Normalize against the universe, drop empties and the universe itself
  // (it is the root), and group the surviving windows by base prefix.
  std::map<util::IpPrefix, std::set<Window>> windows;
  std::set<int> lengths;
  for (const auto& r : ranges) {
    auto clipped = Normalize(r).Intersect(universe);
    if (!clipped || *clipped == universe) continue;
    windows[clipped->prefix()].insert({clipped->low(), clipped->high()});
    lengths.insert(clipped->prefix().length());
  }

  // Close under intersection. Two ranges meet only when one base contains
  // the other, and the meet sits at the longer base with the intersected
  // window. So the closed windows at base b are the meets of b's own
  // windows (pairwise meets suffice: an interval intersection is fixed by
  // its max low and min high) with every closed window of b's strict
  // ancestors, which together hold every meet of ancestor windows.
  // Visiting bases shortest first makes each ancestor's set final before
  // it is read; descendants never feed back into an ancestor.
  std::vector<std::pair<const util::IpPrefix, std::set<Window>>*> by_length;
  for (auto& entry : windows) by_length.push_back(&entry);
  std::stable_sort(by_length.begin(), by_length.end(),
                   [](const auto* a, const auto* b) {
                     return a->first.length() < b->first.length();
                   });
  auto meet = [](const Window& a, const Window& b) {
    return Window{std::max(a.first, b.first), std::min(a.second, b.second)};
  };
  for (auto* entry : by_length) {
    const std::set<Window> own = entry->second;
    std::set<Window>& closed = entry->second;
    for (auto a = own.begin(); a != own.end(); ++a) {
      for (auto b = std::next(a); b != own.end(); ++b) {
        Window m = meet(*a, *b);
        if (m.first <= m.second) closed.insert(m);
      }
    }
    std::set<Window> inherited;
    ForEachAncestor(windows, lengths, entry->first,
                    [&](const std::set<Window>& ancestor) {
                      inherited.insert(ancestor.begin(), ancestor.end());
                    });
    if (inherited.empty()) continue;
    const std::vector<Window> base_meets(closed.begin(), closed.end());
    for (const Window& x : base_meets) {
      for (const Window& y : inherited) {
        Window m = meet(x, y);
        if (m.first <= m.second) closed.insert(m);
      }
    }
  }

  // Insert in generality order — containers before containees — so every
  // strict container of a range already exists when the range is inserted.
  // Containment implies base length is <= and the window is wider, so
  // sorting by (base length asc, window width desc) is a topological order.
  std::vector<util::PrefixRange> ordered;
  for (const auto& [base, closed] : windows) {
    for (const auto& [low, high] : closed) ordered.emplace_back(base, low, high);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const util::PrefixRange& a, const util::PrefixRange& b) {
              if (a.prefix().length() != b.prefix().length()) {
                return a.prefix().length() < b.prefix().length();
              }
              int wa = a.high() - a.low();
              int wb = b.high() - b.low();
              if (wa != wb) return wa > wb;
              return a < b;
            });

  labels_.reserve(ordered.size() + 1);
  labels_.push_back(universe);
  labels_.insert(labels_.end(), ordered.begin(), ordered.end());
  children_.resize(labels_.size());
  std::map<util::IpPrefix, std::vector<std::size_t>> nodes_at;
  for (std::size_t node = 1; node < labels_.size(); ++node) {
    nodes_at[labels_[node].prefix()].push_back(node);
  }

  // Immediate parents: strict containers with no other strict container of
  // r strictly below them. Strict containers sit at r's base or one of its
  // ancestors (the same truncation walk as the closure); the root contains
  // everything and is a parent only when nothing else contains r.
  std::vector<std::size_t> containers;
  for (std::size_t node = 1; node < labels_.size(); ++node) {
    const util::PrefixRange& r = labels_[node];
    containers.clear();
    auto collect = [&](const std::vector<std::size_t>& candidates) {
      for (std::size_t m : candidates) {
        if (m != node && labels_[m].ContainsRange(r)) containers.push_back(m);
      }
    };
    ForEachAncestor(nodes_at, lengths, r.prefix(), collect);
    collect(nodes_at.find(r.prefix())->second);
    if (containers.empty()) {
      children_[root()].push_back(node);
      continue;
    }
    for (std::size_t m : containers) {
      bool immediate = true;
      for (std::size_t k : containers) {
        if (k != m && labels_[m].ContainsRange(labels_[k])) {
          immediate = false;
          break;
        }
      }
      if (immediate) children_[m].push_back(node);
    }
  }
}

}  // namespace campion::core
