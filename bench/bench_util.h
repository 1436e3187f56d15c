#pragma once

// Shared helpers for the benchmark/report binaries. Each bench binary
// regenerates one table or figure of the paper: it first prints the
// reproduced artifact (so `./bench_tableN` output can be compared against
// the paper directly), then runs google-benchmark timings for the
// operations involved.
//
// Binaries may additionally record named metrics (wall times, throughput,
// kernel counters) with BenchMetrics::Record; passing --bench_out=PATH
// writes them as a flat JSON object, giving successive PRs a perf
// trajectory to diff (bench/run_bench.sh drives this).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_report.h"
#include "util/rss.h"

namespace campion::benchutil {

// Collects named numeric metrics in insertion order. One instance per
// bench binary (a function-local singleton keeps the header self-contained).
class BenchMetrics {
 public:
  static BenchMetrics& Instance() {
    static BenchMetrics metrics;
    return metrics;
  }

  void Record(const std::string& name, double value) {
    values_.emplace_back(name, value);
  }

  // Documents what one unit of `name` means (for rates: what one "op" is).
  // Emitted as a sibling `"<name>_unit"` string next to the metric, so a
  // trajectory reader never has to guess why two `*_ops_per_sec` values are
  // orders of magnitude apart.
  void RecordUnit(const std::string& name, const std::string& unit) {
    units_.emplace_back(name, unit);
  }

  // Records a rate and its unit descriptor together.
  void RecordRate(const std::string& name, double value,
                  const std::string& unit) {
    Record(name, value);
    RecordUnit(name, unit);
  }

  bool empty() const { return values_.empty(); }

  // Writes {"name": value, ...}. Integral values print without a decimal
  // point so counters stay grep-friendly. A metric with a registered unit
  // is followed by its `"<name>_unit"` descriptor string.
  std::string ToJson(const std::string& bench_name) const {
    std::ostringstream out;
    out << "{\n  \"bench\": \"" << bench_name << "\"";
    for (const auto& [name, value] : values_) {
      out << ",\n  \"" << name << "\": ";
      if (value == static_cast<double>(static_cast<long long>(value))) {
        out << static_cast<long long>(value);
      } else {
        out << value;
      }
      for (const auto& [unit_name, unit] : units_) {
        if (unit_name == name) {
          out << ",\n  \"" << name << "_unit\": \"" << unit << "\"";
          break;
        }
      }
    }
    out << "\n}\n";
    return out.str();
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, std::string>> units_;
};

// Runs `fn` with tracing enabled and folds the result into BenchMetrics:
// per-phase wall-clock totals as "phase_<span name>_seconds" and the obs
// counter snapshot as "obs_<counter, dots flattened>". This is how the
// BENCH_*.json trajectory files gain per-phase breakdowns — the same
// spans/counters `campion --trace_out` reports (docs/trace_format.md).
// Tracing is switched off again before returning so the google-benchmark
// loops that follow run uninstrumented.
template <typename Fn>
inline void RecordTracedRun(Fn&& fn) {
  obs::ResetThreadTrace();
  obs::ProcessMetrics().Reset();
  obs::SetEnabled(true);
  fn();
  obs::SetEnabled(false);
  auto& metrics = BenchMetrics::Instance();
  std::vector<obs::Span> spans = obs::TakeThreadSpans();
  for (const auto& phase : obs::PhaseTotals(spans)) {
    metrics.Record("phase_" + phase.name + "_seconds",
                   static_cast<double>(phase.total_ns) / 1e9);
  }
  for (const obs::MetricSample& sample : obs::ProcessMetrics().Snapshot()) {
    std::string flat = sample.name;
    std::replace(flat.begin(), flat.end(), '.', '_');
    metrics.Record("obs_" + flat, sample.value);
  }
  // Peak-memory fields for the BENCH_*.json trajectory: the process
  // high-water RSS after the traced workload (zero on platforms without
  // /proc/self/status). The BDD byte accounting already rides along above
  // as obs_bdd_mem_*.
  util::MemorySample sample = util::SampleProcessMemory();
  metrics.Record("peak_rss_bytes",
                 static_cast<double>(sample.peak_rss_bytes));
}

inline void PrintHeader(const std::string& title) {
  std::cout << "\n==================================================\n"
            << title << "\n"
            << "==================================================\n";
}

// Extracts --bench_out=PATH from argv (removing it so google-benchmark
// does not reject the unknown flag). Returns the path, or "" if absent.
inline std::string ExtractBenchOutPath(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    constexpr const char* kFlag = "--bench_out=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      path = argv[i] + std::strlen(kFlag);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

// Derives the bench name from argv[0] ("/path/to/bench_bdd" -> "bench_bdd").
inline std::string BenchNameFromArgv0(const char* argv0) {
  std::string name = argv0 == nullptr ? "bench" : argv0;
  std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return name;
}

// Runs the artifact printer, then benchmark main, then (if --bench_out was
// given) dumps recorded metrics as JSON.
template <typename Fn>
int RunBench(int argc, char** argv, const std::string& title, Fn&& print) {
  std::string bench_out = ExtractBenchOutPath(&argc, argv);
  PrintHeader(title);
  print();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  if (!bench_out.empty()) {
    std::ofstream file(bench_out);
    if (!file) {
      std::cerr << "error: cannot write " << bench_out << "\n";
      return 1;
    }
    file << BenchMetrics::Instance().ToJson(BenchNameFromArgv0(argv[0]));
    std::cout << "metrics written to " << bench_out << "\n";
  }
  return 0;
}

}  // namespace campion::benchutil
