#include "core/ddnf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <set>
#include <string>

namespace campion::core {
namespace {

using util::AddressFamily;
using util::IpPrefix;
using util::Ipv4Address;
using util::Prefix;
using util::PrefixRange;
using util::U128;

PrefixRange Range(const char* prefix, int low, int high) {
  return PrefixRange(*Prefix::Parse(prefix), low, high);
}

TEST(PrefixRangeDagTest, EmptyInputHasOnlyRoot) {
  PrefixRangeDag dag({});
  EXPECT_EQ(dag.size(), 1u);
  EXPECT_EQ(dag.label(dag.root()), PrefixRange::Universe());
  EXPECT_TRUE(dag.IsLeaf(dag.root()));
}

TEST(PrefixRangeDagTest, RootReachesAllNodes) {
  PrefixRangeDag dag({Range("10.9.0.0/16", 16, 32),
                      Range("10.100.0.0/16", 16, 32),
                      Range("10.9.0.0/16", 16, 16)});
  // BFS from root must reach every node (invariant 1).
  std::set<std::size_t> reached{dag.root()};
  std::vector<std::size_t> frontier{dag.root()};
  while (!frontier.empty()) {
    std::size_t node = frontier.back();
    frontier.pop_back();
    for (std::size_t child : dag.children(node)) {
      if (reached.insert(child).second) frontier.push_back(child);
    }
  }
  EXPECT_EQ(reached.size(), dag.size());
}

TEST(PrefixRangeDagTest, LabelsAreUnique) {
  PrefixRangeDag dag({Range("10.9.0.0/16", 16, 32),
                      Range("10.9.0.0/16", 16, 32),  // Duplicate.
                      Range("10.9.0.0/16", 0, 32)});  // Same after clamping.
  std::set<PrefixRange> labels(dag.labels().begin(), dag.labels().end());
  EXPECT_EQ(labels.size(), dag.size());
}

TEST(PrefixRangeDagTest, EdgesAreStrictImmediateContainment) {
  PrefixRangeDag dag({Range("10.0.0.0/8", 8, 32), Range("10.9.0.0/16", 16, 32),
                      Range("10.9.0.0/16", 16, 16)});
  for (std::size_t m = 0; m < dag.size(); ++m) {
    for (std::size_t n : dag.children(m)) {
      // Strict containment (invariant 4).
      EXPECT_TRUE(dag.label(m).ContainsRange(dag.label(n)));
      EXPECT_NE(dag.label(m), dag.label(n));
      // No intermediate node between m and n.
      for (std::size_t k = 0; k < dag.size(); ++k) {
        if (k == m || k == n) continue;
        bool between = dag.label(m).ContainsRange(dag.label(k)) &&
                       dag.label(m) != dag.label(k) &&
                       dag.label(k).ContainsRange(dag.label(n)) &&
                       dag.label(k) != dag.label(n);
        EXPECT_FALSE(between)
            << dag.label(k).ToString() << " sits between "
            << dag.label(m).ToString() << " and " << dag.label(n).ToString();
      }
    }
  }
}

TEST(PrefixRangeDagTest, ClosedUnderIntersection) {
  PrefixRangeDag dag({Range("10.0.0.0/8", 8, 20), Range("10.9.0.0/16", 16, 32),
                      Range("0.0.0.0/0", 24, 24)});
  std::set<PrefixRange> labels(dag.labels().begin(), dag.labels().end());
  for (const auto& a : labels) {
    for (const auto& b : labels) {
      auto meet = a.Intersect(b);
      if (meet) {
        EXPECT_TRUE(labels.contains(*meet))
            << a.ToString() << " ^ " << b.ToString() << " = "
            << meet->ToString() << " missing";
      }
    }
  }
}

TEST(PrefixRangeDagTest, MultipleParents) {
  // E = (10.16/12, 24-32) is contained in both B = (10.16/12, 12-32) and
  // C = (10/8, 24-32), which are incomparable — a true DAG, not a tree.
  PrefixRangeDag dag({Range("10.16.0.0/12", 12, 32), Range("10.0.0.0/8", 24, 32),
                      Range("10.16.0.0/12", 24, 32)});
  PrefixRange e = Range("10.16.0.0/12", 24, 32);
  int parent_count = 0;
  for (std::size_t m = 0; m < dag.size(); ++m) {
    for (std::size_t n : dag.children(m)) {
      if (dag.label(n) == e) ++parent_count;
    }
  }
  EXPECT_EQ(parent_count, 2);
}

TEST(PrefixRangeDagTest, EmptyRangesDropped) {
  PrefixRangeDag dag({Range("10.9.0.0/16", 4, 8)});  // Infeasible window.
  EXPECT_EQ(dag.size(), 1u);  // Root only.
}

TEST(PrefixRangeDagTest, CustomUniverseClipsRanges) {
  // An address universe of /32s (ACL localization): length windows clamp.
  PrefixRange universe = Range("0.0.0.0/0", 32, 32);
  PrefixRangeDag dag({Range("10.9.0.0/16", 16, 32)}, universe);
  ASSERT_EQ(dag.size(), 2u);
  EXPECT_EQ(dag.label(1), Range("10.9.0.0/16", 32, 32));
}

TEST(PrefixRangeDagTest, UniverseInInputIsNotDuplicated) {
  PrefixRangeDag dag({PrefixRange::Universe(), Range("10.0.0.0/8", 8, 32)});
  EXPECT_EQ(dag.size(), 2u);
}


TEST(PrefixRangeDagTest, InsertionOrderIndependent) {
  // The DAG is canonical: any permutation of the input ranges yields the
  // same label set and the same edge relation.
  std::vector<PrefixRange> ranges = {
      Range("10.0.0.0/8", 8, 32),   Range("10.9.0.0/16", 16, 32),
      Range("10.9.0.0/16", 16, 16), Range("0.0.0.0/0", 24, 24),
      Range("10.16.0.0/12", 12, 32), Range("10.16.0.0/12", 24, 32)};
  auto edge_set = [](const PrefixRangeDag& dag) {
    std::set<std::pair<PrefixRange, PrefixRange>> edges;
    for (std::size_t m = 0; m < dag.size(); ++m) {
      for (std::size_t n : dag.children(m)) {
        edges.insert({dag.label(m), dag.label(n)});
      }
    }
    return edges;
  };
  PrefixRangeDag reference(ranges);
  std::set<PrefixRange> reference_labels(reference.labels().begin(),
                                         reference.labels().end());
  auto reference_edges = edge_set(reference);
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(ranges.begin(), ranges.end(), rng);
    PrefixRangeDag shuffled(ranges);
    std::set<PrefixRange> labels(shuffled.labels().begin(),
                                 shuffled.labels().end());
    EXPECT_EQ(labels, reference_labels);
    EXPECT_EQ(edge_set(shuffled), reference_edges);
  }
}


// The reference construction the trie-pruned build must reproduce: clip
// every range to the universe, close the pool under intersection by
// intersecting each range with every other until a fixed point, sort into
// generality order, and find each node's immediate parents by scanning
// every earlier node.
struct ReferenceDag {
  std::vector<PrefixRange> labels;
  std::vector<std::vector<std::size_t>> children;
};

PrefixRange NormalizeForReference(const PrefixRange& r) {
  return PrefixRange(r.prefix(), std::max(r.low(), r.prefix().length()),
                     std::min(r.high(), util::MaxPrefixLength(r.family())));
}

ReferenceDag PairwiseClosureDag(const std::vector<PrefixRange>& ranges,
                                PrefixRange universe) {
  universe = NormalizeForReference(universe);
  std::set<PrefixRange> pool;
  for (const auto& r : ranges) {
    auto clipped = NormalizeForReference(r).Intersect(universe);
    if (clipped) pool.insert(*clipped);
  }
  pool.erase(universe);
  std::vector<PrefixRange> worklist(pool.begin(), pool.end());
  while (!worklist.empty()) {
    PrefixRange r = worklist.back();
    worklist.pop_back();
    std::vector<PrefixRange> fresh;
    for (const auto& other : pool) {
      auto meet = r.Intersect(other);
      if (meet && !pool.contains(*meet) && *meet != universe) {
        fresh.push_back(*meet);
      }
    }
    for (auto& m : fresh) {
      if (pool.insert(m).second) worklist.push_back(m);
    }
  }
  std::vector<PrefixRange> ordered(pool.begin(), pool.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const PrefixRange& a, const PrefixRange& b) {
              if (a.prefix().length() != b.prefix().length()) {
                return a.prefix().length() < b.prefix().length();
              }
              int wa = a.high() - a.low();
              int wb = b.high() - b.low();
              if (wa != wb) return wa > wb;
              return a < b;
            });
  ReferenceDag dag;
  dag.labels.push_back(universe);
  dag.labels.insert(dag.labels.end(), ordered.begin(), ordered.end());
  dag.children.resize(dag.labels.size());
  for (std::size_t node = 1; node < dag.labels.size(); ++node) {
    std::vector<std::size_t> containers;
    for (std::size_t m = 0; m < node; ++m) {
      if (dag.labels[m].ContainsRange(dag.labels[node])) {
        containers.push_back(m);
      }
    }
    for (std::size_t m : containers) {
      bool immediate = true;
      for (std::size_t k : containers) {
        if (k != m && dag.labels[m].ContainsRange(dag.labels[k])) {
          immediate = false;
          break;
        }
      }
      if (immediate) dag.children[m].push_back(node);
    }
  }
  return dag;
}

// One random pool and the universe it is localized under.
struct Pool {
  std::vector<PrefixRange> ranges;
  PrefixRange universe;
};

// A base prefix under `root`: the root's bits plus a few random bits below
// it, so that bases nest often. Random bits are drawn from a narrow band
// right under the root so that siblings and equal bases recur.
IpPrefix RandomBase(std::mt19937_64& rng, const IpPrefix& root, int extra) {
  const int width = util::AddressWidth(root.family());
  const int length = std::min(width, root.length() + extra);
  U128 bits = root.address().bits();
  for (int bit = root.length(); bit < length && bit < root.length() + 6;
       ++bit) {
    if (rng() % 2 == 0) bits = bits | (U128(1) << (width - 1 - bit));
  }
  return IpPrefix(root.family(), bits, length);
}

Pool Ipv4Pool(std::mt19937_64& rng) {
  Pool pool{{}, PrefixRange::Universe()};
  const IpPrefix root(Prefix(Ipv4Address(10, 0, 0, 0), 8));
  const int count = 2 + static_cast<int>(rng() % 12);
  for (int i = 0; i < count; ++i) {
    IpPrefix base = RandomBase(rng, root, static_cast<int>(rng() % 17));
    int low = base.length() + static_cast<int>(rng() % 6);
    int high = std::min(32, low + static_cast<int>(rng() % 10));
    pool.ranges.emplace_back(base, low, high);
  }
  return pool;
}

// ACL-style address localization: every window is exactly /128.
Pool Ipv6HostPool(std::mt19937_64& rng) {
  Pool pool{{}, PrefixRange(IpPrefix(AddressFamily::kIpv6, U128(), 0), 128,
                            128)};
  const IpPrefix root = *IpPrefix::Parse("2001:db8::/32");
  const int count = 2 + static_cast<int>(rng() % 12);
  for (int i = 0; i < count; ++i) {
    IpPrefix base = RandomBase(rng, root, static_cast<int>(rng() % 97));
    pool.ranges.emplace_back(base, 128, 128);
  }
  // Ranges of the other family never meet the universe.
  if (rng() % 4 == 0) {
    pool.ranges.emplace_back(Prefix(Ipv4Address(10, 0, 0, 0), 8), 32, 32);
  }
  return pool;
}

// The universe (or a range wider than it) appears in the input, under a
// universe that is not the whole space.
Pool UniverseInInputPool(std::mt19937_64& rng) {
  Pool pool = Ipv4Pool(rng);
  switch (rng() % 3) {
    case 0:
      pool.ranges.push_back(pool.universe);
      break;
    case 1:
      pool.universe = PrefixRange(Prefix(Ipv4Address(10, 0, 0, 0), 8),
                                  8 + static_cast<int>(rng() % 8), 32);
      pool.ranges.push_back(pool.universe);
      pool.ranges.push_back(PrefixRange::Universe());
      break;
    default:
      pool.universe = PrefixRange(Prefix(Ipv4Address(0, 0, 0, 0), 0),
                                  static_cast<int>(rng() % 20), 32);
      pool.ranges.push_back(pool.universe);
      pool.ranges.emplace_back(Prefix(Ipv4Address(0, 0, 0, 0), 0), 0, 32);
      break;
  }
  return pool;
}

// Windows that clamp to nothing: below the base length, above the family
// width, or inverted.
Pool InfeasiblePool(std::mt19937_64& rng) {
  Pool pool = Ipv4Pool(rng);
  const int count = 1 + static_cast<int>(rng() % 6);
  for (int i = 0; i < count; ++i) {
    IpPrefix base = pool.ranges[rng() % pool.ranges.size()].prefix();
    switch (rng() % 3) {
      case 0:
        pool.ranges.emplace_back(base, 0, base.length() - 1);
        break;
      case 1:
        pool.ranges.emplace_back(base, 33, 40);
        break;
      default: {
        int low = base.length() + 1 + static_cast<int>(rng() % 8);
        pool.ranges.emplace_back(base, low, low - 1);
        break;
      }
    }
  }
  return pool;
}

// One address seen at many lengths: every base nests in every shorter one,
// and each carries a few overlapping windows.
Pool DeepChainPool(std::mt19937_64& rng) {
  const bool v6 = rng() % 2 == 0;
  const AddressFamily family = v6 ? AddressFamily::kIpv6 : AddressFamily::kIpv4;
  const int width = util::AddressWidth(family);
  Pool pool{{}, PrefixRange::UniverseOf(family)};
  const U128 address = v6 ? U128(rng(), rng())
                          : U128(static_cast<std::uint32_t>(rng()));
  const int step = (v6 ? 4 : 1) + static_cast<int>(rng() % 4);
  for (int length = static_cast<int>(rng() % 4); length <= width;
       length += step) {
    IpPrefix base(family, address, length);
    const int windows = 1 + static_cast<int>(rng() % 2);
    for (int i = 0; i < windows; ++i) {
      int low = length + static_cast<int>(rng() % 8);
      int high = std::min(width, low + static_cast<int>(rng() % 12));
      pool.ranges.emplace_back(base, low, high);
    }
  }
  return pool;
}

void ExpectSameDag(const Pool& pool, const std::string& context) {
  ReferenceDag expected = PairwiseClosureDag(pool.ranges, pool.universe);
  PrefixRangeDag dag(pool.ranges, pool.universe);
  ASSERT_EQ(dag.labels(), expected.labels) << context;
  for (std::size_t node = 0; node < dag.size(); ++node) {
    ASSERT_EQ(dag.children(node), expected.children[node])
        << context << ", node " << dag.label(node).ToString();
  }
}

struct PoolFamily {
  const char* name;
  std::function<Pool(std::mt19937_64&)> generate;
};

void PrintTo(const PoolFamily& family, std::ostream* os) { *os << family.name; }

class PrefixRangeDagPropertyTest
    : public ::testing::TestWithParam<PoolFamily> {};

TEST_P(PrefixRangeDagPropertyTest, MatchesPairwiseClosure) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    std::mt19937_64 rng(seed);
    Pool pool = GetParam().generate(rng);
    ExpectSameDag(pool, std::string(GetParam().name) + " seed " +
                            std::to_string(seed));
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pools, PrefixRangeDagPropertyTest,
    ::testing::Values(PoolFamily{"Ipv4", Ipv4Pool},
                      PoolFamily{"Ipv6HostWindows", Ipv6HostPool},
                      PoolFamily{"UniverseInInput", UniverseInInputPool},
                      PoolFamily{"InfeasibleWindows", InfeasiblePool},
                      PoolFamily{"DeepChains", DeepChainPool}),
    [](const ::testing::TestParamInfo<PoolFamily>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace campion::core
