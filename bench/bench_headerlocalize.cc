// Regenerates Figure 3: the ddNF prefix-range DAG and the GetMatch result
// {B - D, C - F, G} on the paper's seven-range example, then times
// HeaderLocalize as the number of configuration ranges grows (an ablation
// of the localization stage on top of SemanticDiff): a DAG build and one
// localization at 100, 1,000 and 10,000 university-shaped ranges, for
// IPv4 and IPv6, recorded as `dag_build_seconds_<family>_<ranges>`,
// `localize_seconds_<family>_<ranges>` and `dag_nodes_<family>_<ranges>`.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/header_localize.h"
#include "encode/route_adv.h"
#include "util/text_table.h"

namespace {

using campion::util::AddressFamily;
using campion::util::IpPrefix;
using campion::util::Ipv4Address;
using campion::util::Prefix;
using campion::util::PrefixRange;
using campion::util::U128;

// The Figure 3 shape: A contains B and C; B contains D and E; C contains E
// and F; F contains G. S is chosen so GetMatch returns {B-D, C-F, G}.
struct Fig3 {
  PrefixRange a{Prefix(Ipv4Address(10, 0, 0, 0), 8), 8, 32};
  PrefixRange b{Prefix(Ipv4Address(10, 16, 0, 0), 12), 12, 32};
  PrefixRange c{Prefix(Ipv4Address(10, 0, 0, 0), 8), 24, 32};
  PrefixRange d{Prefix(Ipv4Address(10, 16, 0, 0), 12), 14, 20};
  PrefixRange e{Prefix(Ipv4Address(10, 16, 0, 0), 12), 24, 32};
  PrefixRange f{Prefix(Ipv4Address(10, 32, 0, 0), 11), 24, 32};
  PrefixRange g{Prefix(Ipv4Address(10, 32, 0, 0), 11), 28, 32};
};

void PrintFig3() {
  Fig3 ranges;
  campion::bdd::BddManager mgr;
  campion::encode::RouteAdvLayout layout(mgr, {});
  auto to_bdd = [&](const PrefixRange& r) {
    return layout.MatchPrefixRange(r);
  };

  // S = (B - D) u (C - F) u G.
  campion::bdd::BddRef s = mgr.Or(
      mgr.Or(mgr.Diff(to_bdd(ranges.b), to_bdd(ranges.d)),
             mgr.Diff(to_bdd(ranges.c), to_bdd(ranges.f))),
      to_bdd(ranges.g));

  auto result = campion::core::HeaderLocalize(
      mgr, s,
      {ranges.a, ranges.b, ranges.c, ranges.d, ranges.e, ranges.f, ranges.g},
      to_bdd);
  std::cout << "S = (B - D) u (C - F) u G over the Figure 3 DAG\n";
  std::cout << "GetMatch representation (paper: {B - D, C - F, G}):\n";
  for (const auto& term : result.terms) {
    std::cout << "  " << term.ToString() << "\n";
  }
}

// `count` ranges shaped like the university configurations' prefix lists
// and static routes: every 64 subnets share an aggregate with an orlonger
// window (like NETS), each subnet carries a short window (like the filler
// lists), and every fourth subnet is also an exact static route. IPv4
// subnets are /24s from 172.16.0.0 up, in /16 aggregates; IPv6 subnets are
// /64s under 2001:db8::/32, in /48 aggregates.
std::vector<PrefixRange> UniversityShapedRanges(int count,
                                                AddressFamily family) {
  const bool v4 = family == AddressFamily::kIpv4;
  const int width = campion::util::AddressWidth(family);
  const int aggregate_length = v4 ? 16 : 48;
  const int subnet_length = v4 ? 24 : 64;
  const U128 root = v4 ? U128((172u << 24) | (16u << 16))
                       : U128(0x20010db800000000ull, 0);
  auto subnet = [&](int i) {
    // Subnet i: aggregate i / 64 and, inside it, subnet i % 64.
    U128 bits = root | (U128(static_cast<std::uint64_t>(i / 64))
                        << (width - aggregate_length)) |
                (U128(static_cast<std::uint64_t>(i % 64))
                 << (width - subnet_length));
    return IpPrefix(family, bits, subnet_length);
  };
  std::vector<PrefixRange> ranges;
  for (int i = 0; static_cast<int>(ranges.size()) < count; ++i) {
    IpPrefix net = subnet(i);
    if (i % 64 == 0) {
      IpPrefix aggregate(family, net.address().bits(), aggregate_length);
      ranges.emplace_back(aggregate, aggregate_length, width);
    }
    if (static_cast<int>(ranges.size()) < count) {
      ranges.emplace_back(net, subnet_length, subnet_length + i % 9);
    }
    if (i % 4 == 0 && static_cast<int>(ranges.size()) < count) {
      ranges.emplace_back(net);
    }
  }
  return ranges;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Times a DAG build and one localization over `count` ranges, median of
// five runs each. The localization starts from a fresh manager holding
// only the difference set S (the union of every third range), so it pays
// for encoding the node BDDs it visits, as a pair's first difference does.
void PrintRangeCountSweep() {
  auto& metrics = campion::benchutil::BenchMetrics::Instance();
  campion::util::TextTable table(
      {"Family", "Ranges", "DAG nodes", "DAG build (ms)", "Localize (ms)"});
  for (AddressFamily family : {AddressFamily::kIpv4, AddressFamily::kIpv6}) {
    const std::string tag = family == AddressFamily::kIpv4 ? "v4" : "v6";
    const PrefixRange universe = PrefixRange::UniverseOf(family);
    for (int count : {100, 1000, 10000}) {
      std::vector<PrefixRange> ranges = UniversityShapedRanges(count, family);
      constexpr int kRuns = 5;
      std::vector<double> build_s;
      std::vector<double> localize_s;
      std::size_t dag_nodes = 0;
      for (int run = 0; run < kRuns; ++run) {
        auto start = std::chrono::steady_clock::now();
        campion::core::PrefixRangeDag dag(ranges, universe);
        build_s.push_back(SecondsSince(start));
        dag_nodes = dag.size();

        campion::bdd::BddManager mgr;
        campion::encode::RouteAdvLayout layout(mgr, {}, family);
        auto to_bdd = [&](const PrefixRange& r) {
          return layout.MatchPrefixRange(r);
        };
        campion::bdd::BddRef s = mgr.False();
        for (std::size_t i = 0; i < ranges.size(); i += 3) {
          s = mgr.Or(s, to_bdd(ranges[i]));
        }
        start = std::chrono::steady_clock::now();
        auto result =
            campion::core::HeaderLocalizer(mgr, dag, to_bdd).Localize(s);
        localize_s.push_back(SecondsSince(start));
        benchmark::DoNotOptimize(result);
      }
      const std::string suffix = tag + "_" + std::to_string(count);
      metrics.Record("dag_nodes_" + suffix, static_cast<double>(dag_nodes));
      metrics.Record("dag_build_seconds_" + suffix, Median(build_s));
      metrics.Record("localize_seconds_" + suffix, Median(localize_s));
      char build_ms[32];
      char localize_ms[32];
      std::snprintf(build_ms, sizeof(build_ms), "%.3f",
                    Median(build_s) * 1e3);
      std::snprintf(localize_ms, sizeof(localize_ms), "%.3f",
                    Median(localize_s) * 1e3);
      table.AddRow({tag, std::to_string(count), std::to_string(dag_nodes),
                    build_ms, localize_ms});
    }
  }
  std::cout << table.Render();
}

void PrintArtifacts() {
  PrintFig3();
  campion::benchutil::PrintHeader(
      "HeaderLocalize range-count sweep (median of 5 runs)");
  PrintRangeCountSweep();
}

void BM_PrefixRangeDagBuild(benchmark::State& state) {
  std::vector<PrefixRange> ranges = UniversityShapedRanges(
      static_cast<int>(state.range(0)), AddressFamily::kIpv4);
  for (auto _ : state) {
    campion::core::PrefixRangeDag dag(ranges);
    benchmark::DoNotOptimize(dag);
  }
}
BENCHMARK(BM_PrefixRangeDagBuild)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_HeaderLocalizeRangeCount(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  campion::bdd::BddManager mgr;
  campion::encode::RouteAdvLayout layout(mgr, {});
  auto to_bdd = [&](const PrefixRange& r) {
    return layout.MatchPrefixRange(r);
  };
  std::vector<PrefixRange> ranges;
  for (int i = 0; i < count; ++i) {
    ranges.emplace_back(
        Prefix(Ipv4Address(10, static_cast<std::uint8_t>(i % 250), 0, 0),
               16),
        16, 16 + (i % 17));
  }
  // S: the union of every third range.
  campion::bdd::BddRef s = mgr.False();
  for (int i = 0; i < count; i += 3) s = mgr.Or(s, to_bdd(ranges[i]));
  for (auto _ : state) {
    auto result = campion::core::HeaderLocalize(mgr, s, ranges, to_bdd);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_HeaderLocalizeRangeCount)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return campion::benchutil::RunBench(
      argc, argv, "Figure 3: ddNF DAG and GetMatch", PrintArtifacts);
}
