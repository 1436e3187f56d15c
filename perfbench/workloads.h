#pragma once

// The benchmark's three workloads (see README.md for why each exists):
//
//   university_routemaps  paper-sized university core and border pairs,
//                         Cisco vs JunOS text, IPv4 route maps;
//   dualstack_acls        Cisco-vs-JunOS ACL pairs of 1,000-3,000 rules,
//                         half IPv4 and half IPv6;
//   serve_fleet           an in-process campion_serve daemon driven closed
//                         loop over loopback HTTP: fleet pushes, session
//                         edits and result-cache replays.
//
// Each run measures untraced end-to-end metrics, or (trace) per-layer
// metrics from bench-owned spans around the layers' public entry points.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test hook: invert the oracle's expected verdict for the first
  // checked pair, so the run must report failures.
  bool flip_oracle = false;
  std::string spans_out;  // Where a traced run writes its spans ("" = not).
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  long oracle_pairs_checked = 0;
  std::vector<Metric> metrics;
  // Provenance and diagnostics: sample counts, thread and connection
  // counts, the traced top layer, the first few failures.
  std::map<std::string, std::string> info;
  std::vector<std::string> errors;
};

bool KnownWorkload(const std::string& name);
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench
