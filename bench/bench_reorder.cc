// A/B benchmark for dynamic variable reordering (Rudell sifting,
// src/bdd): runs the same comparisons with --reorder off, sift, and
// group_sift and reports total live BDD nodes (bdd.arena_nodes) and
// compare wall-clock per mode, across the src/gen workloads. The report
// text must be byte-identical in every mode — reordering is a pure
// performance lever — and the summary asserts that parity on every
// workload.
//
// With --bench_out=PATH the per-workload numbers land in
// BENCH_reorder.json (node counts, wall times, and the sifted/declared
// node ratio the EXPERIMENTS.md claim quotes).

#include <chrono>
#include <iomanip>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/config_diff.h"
#include "gen/acl_gen.h"
#include "gen/route_map_gen.h"
#include "gen/scenarios.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using campion::core::DiffOptions;

struct Workload {
  std::string name;
  campion::ir::RouterConfig config1;
  campion::ir::RouterConfig config2;
  DiffOptions options;  // Check toggles; reorder mode is set per run.
};

// Only the semantic checks build BDDs; structural checks would just add
// constant noise to the wall times.
DiffOptions ChecksOnly(bool route_maps, bool acls) {
  DiffOptions options;
  options.check_route_maps = route_maps;
  options.check_acls = acls;
  options.check_static_routes = false;
  options.check_connected_routes = false;
  options.check_ospf = false;
  options.check_bgp_properties = false;
  options.check_admin_distances = false;
  options.num_threads = 1;  // Serial: wall times are comparable per mode.
  return options;
}

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> workloads;

  // Seeded route-map pair with injected differences: the route-side
  // encoding (prefix ranges, communities, tags, metrics).
  campion::gen::RouteMapGenOptions rm_options;
  rm_options.clauses = 16;
  rm_options.prefix_lists = 6;
  rm_options.entries_per_list = 6;
  rm_options.communities = 8;
  rm_options.seed = 11;
  rm_options.differences = 4;
  campion::gen::GeneratedRouteMapPair rm =
      campion::gen::GenerateRouteMapPair(rm_options);
  // The generator emits bare configs; ConfigDiff pairs route maps through
  // BGP neighbor references, so attach the map to a matching neighbor on
  // both sides.
  for (campion::ir::RouterConfig* config : {&rm.config1, &rm.config2}) {
    campion::ir::BgpProcess bgp;
    bgp.asn = 65000;
    campion::ir::BgpNeighbor neighbor;
    neighbor.ip = campion::util::Ipv4Address(10, 0, 0, 1);
    neighbor.remote_as = 65001;
    neighbor.export_policy = rm.map_name;
    bgp.neighbors.push_back(neighbor);
    config->bgp = bgp;
  }
  workloads.push_back({"routemap_gen", rm.config1, rm.config2,
                       ChecksOnly(/*route_maps=*/true, /*acls=*/false)});

  // Seeded ACL pair: the packet-side encoding (IPs, ports, protocol).
  campion::gen::AclGenOptions acl_options;
  acl_options.rules = 200;
  acl_options.seed = 5;
  acl_options.differences = 6;
  campion::gen::GeneratedAclPair acl =
      campion::gen::GenerateAclPair(acl_options);
  workloads.push_back(
      {"acl_gen",
       campion::gen::WrapAclInConfig(acl.acl1, "acl-r1",
                                     campion::ir::Vendor::kCisco),
       campion::gen::WrapAclInConfig(acl.acl2, "acl-r2",
                                     campion::ir::Vendor::kCisco),
       ChecksOnly(/*route_maps=*/false, /*acls=*/true)});

  // The university core pair: the committed end-to-end scenario with both
  // route-map and ACL sides live.
  campion::gen::UniversityScenario university =
      campion::gen::BuildUniversityScenario();
  workloads.push_back({"university_core", university.core.config1,
                       university.core.config2,
                       ChecksOnly(/*route_maps=*/true, /*acls=*/true)});

  return workloads;
}

struct ModeRun {
  double arena_nodes = 0.0;  // Sum of live nodes across run managers.
  double seconds = 0.0;
  std::string report;
};

ModeRun RunMode(const Workload& workload, DiffOptions::ReorderMode mode) {
  // Traced run so the metrics registry accumulates bdd.arena_nodes across
  // every manager (template + pairs) exactly as `campion --stats` would.
  campion::obs::ResetThreadTrace();
  campion::obs::ProcessMetrics().Reset();
  campion::obs::SetEnabled(true);
  DiffOptions options = workload.options;
  options.reorder = mode;
  auto t0 = std::chrono::steady_clock::now();
  campion::core::DiffReport report = campion::core::ConfigDiff(
      workload.config1, workload.config2, options);
  auto t1 = std::chrono::steady_clock::now();
  campion::obs::SetEnabled(false);
  campion::obs::TakeThreadSpans();

  ModeRun run;
  run.seconds = std::chrono::duration<double>(t1 - t0).count();
  run.report = report.Render();
  for (const campion::obs::MetricSample& sample :
       campion::obs::ProcessMetrics().Snapshot()) {
    if (sample.name == "bdd.arena_nodes") run.arena_nodes = sample.value;
  }
  campion::obs::ProcessMetrics().Reset();
  return run;
}

const char* ModeName(DiffOptions::ReorderMode mode) {
  switch (mode) {
    case DiffOptions::ReorderMode::kOff:
      return "off";
    case DiffOptions::ReorderMode::kSift:
      return "sift";
    case DiffOptions::ReorderMode::kGroupSift:
      return "group_sift";
  }
  return "?";
}

void PrintSummary() {
  auto& metrics = campion::benchutil::BenchMetrics::Instance();
  const DiffOptions::ReorderMode kModes[] = {
      DiffOptions::ReorderMode::kOff, DiffOptions::ReorderMode::kSift,
      DiffOptions::ReorderMode::kGroupSift};

  bool all_identical = true;
  for (const Workload& workload : BuildWorkloads()) {
    std::cout << workload.name << ":\n";
    ModeRun off;
    for (DiffOptions::ReorderMode mode : kModes) {
      ModeRun run = RunMode(workload, mode);
      bool identical = true;
      if (mode == DiffOptions::ReorderMode::kOff) {
        off = run;
      } else {
        identical = run.report == off.report;
        all_identical = all_identical && identical;
      }
      std::cout << "  " << std::left << std::setw(11) << ModeName(mode)
                << std::right << std::setw(9)
                << static_cast<long long>(run.arena_nodes) << " live nodes  "
                << std::fixed << std::setprecision(4) << run.seconds << " s"
                << (identical ? "" : "  REPORT MISMATCH (BUG)") << "\n";
      std::string prefix = workload.name + "_" + ModeName(mode);
      metrics.Record(prefix + "_arena_nodes", run.arena_nodes);
      metrics.RecordUnit(prefix + "_arena_nodes",
                         "live BDD nodes summed over all managers "
                         "(bdd.arena_nodes)");
      metrics.Record(prefix + "_compare_seconds", run.seconds);
      if (mode != DiffOptions::ReorderMode::kOff && off.arena_nodes > 0) {
        double ratio = run.arena_nodes / off.arena_nodes;
        std::cout << "    " << ModeName(mode)
                  << "/off node ratio: " << std::setprecision(3) << ratio
                  << "\n";
        metrics.Record(prefix + "_node_ratio", ratio);
        metrics.RecordUnit(prefix + "_node_ratio",
                           "sifted live nodes / declaration-order live "
                           "nodes (< 1 = reorder shrank the run)");
      }
    }
  }
  std::cout << "report parity across modes: "
            << (all_identical ? "OK (byte-identical)" : "BROKEN") << "\n";
  metrics.Record("report_parity_all_modes", all_identical ? 1.0 : 0.0);
}

void BM_UniversityCoreCompare(benchmark::State& state) {
  campion::gen::UniversityScenario university =
      campion::gen::BuildUniversityScenario();
  DiffOptions options = ChecksOnly(true, true);
  options.reorder = state.range(0) == 0 ? DiffOptions::ReorderMode::kOff
                                        : DiffOptions::ReorderMode::kSift;
  for (auto _ : state) {
    auto report = campion::core::ConfigDiff(university.core.config1,
                                            university.core.config2, options);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_UniversityCoreCompare)
    ->Arg(0)  // reorder off
    ->Arg(1)  // reorder sift
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return campion::benchutil::RunBench(
      argc, argv, "BDD variable reordering A/B (off vs sift vs group_sift)",
      PrintSummary);
}
