// campion_perfbench: one run of one benchmark workload.
//
//   campion_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--spans-out PATH] [--flip-oracle]
//
// Prints a provenance line, then, as the last line of standard output, the
// result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// perfbench/run.py builds this binary and is the benchmark's entry point.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "util/json.h"
#include "workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: campion_perfbench --workload "
               "university_routemaps|dualstack_acls|serve_fleet --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH] [--flip-oracle]\n";
  return 2;
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Quote(const std::string& text) {
  return "\"" + campion::util::JsonEscape(text) + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        config.workload = value();
        have_workload = perfbench::KnownWorkload(config.workload);
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
        have_seconds = config.seconds > 0;
      } else if (arg == "--trace") {
        const std::string v = value();
        have_trace = v == "0" || v == "1";
        config.trace = v == "1";
      } else if (arg == "--spans-out") {
        config.spans_out = value();
      } else if (arg == "--flip-oracle") {
        config.flip_oracle = true;
      } else {
        return Usage();
      }
    } catch (const std::exception&) {
      return Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }

  perfbench::RunResult result;
  try {
    result = perfbench::RunWorkload(config);
  } catch (const std::exception& e) {
    std::cerr << "campion_perfbench: " << e.what() << "\n";
    return 1;
  }

  std::ostringstream provenance;
  provenance << "{\"provenance\":{\"build_type\":" << Quote(PERFBENCH_BUILD_TYPE)
             << ",\"compiler\":" << Quote(PERFBENCH_COMPILER)
             << ",\"hardware_concurrency\":"
             << std::thread::hardware_concurrency()
             << ",\"online_cpus\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
             << ",\"seconds\":" << Number(config.seconds);
  for (const auto& [key, value] : result.info) {
    provenance << "," << Quote(key) << ":" << Quote(value);
  }
  provenance << "},\"errors\":[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    provenance << (i ? "," : "") << Quote(result.errors[i]);
  }
  provenance << "]}";
  std::cout << provenance.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    out << (i ? ", " : "") << Quote(m.name) << ": {\"value\": "
        << Number(m.value) << ", \"unit\": " << Quote(m.unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}
