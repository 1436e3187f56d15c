#pragma once

// The benchmark's view of one router-pair comparison, three ways:
//
//   CompareOnce        the untraced end-to-end path a user runs:
//                      frontend::LoadConfig x2 + core::ConfigDiff +
//                      DiffReport::Render.
//   DecomposedCompare  the same comparison driven through each layer's
//                      public entry points in pipeline order, every call
//                      wrapped in a bench-owned span. Its rendered report
//                      must equal CompareOnce's byte for byte.
//   CheckVerdicts      the independent oracle: for every route-map and ACL
//                      pair, the monolithic baseline's equivalent/different
//                      verdict must agree with Campion's report.
//
// Nothing here changes program code: spans live in the benchmark and wrap
// calls from outside.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/config_diff.h"
#include "ir/config.h"

namespace perfbench {

namespace core = campion::core;
namespace ir = campion::ir;

// Monotonic clock, nanoseconds and seconds.
std::uint64_t NowNs();
double NowSeconds();

// One router pair as the program sees it: two configuration texts.
struct PairText {
  std::string name;
  std::string text1;
  std::string text2;
};

// ---------------------------------------------------------------------------
// Bench-owned spans
// ---------------------------------------------------------------------------

struct BenchSpan {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  // Index of the enclosing span, -1 at top level.
};

// Spans kept in memory for one run and written when it ends. Open/Close
// nest on the driving thread; Record adds a finished top-level span from
// any thread (the daemon's handler wrapper, the HTTP clients). Every layer
// span the decomposed run opens is a leaf, so its duration is its self
// time; the enclosing "pair" span's self time is the run's own glue.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int Open(const char* name);
  void Close(int id);
  void Record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns);

  // Summed duration of every span with this name.
  double Seconds(const std::string& name) const;
  std::size_t Count(const std::string& name) const;
  std::string ToJson() const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<BenchSpan> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name)
      : log_(log), id_(log.enabled() ? log.Open(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) log_.Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Comparisons
// ---------------------------------------------------------------------------

struct Comparison {
  std::string rendered;
  core::DiffReport report;
  ir::RouterConfig config1;
  ir::RouterConfig config2;
  double config_diff_s = 0.0;  // core::ConfigDiff alone.
};

// LoadConfig x2 + ConfigDiff + Render, with the file names the daemon uses
// ("config1", "config2"), so renders are comparable with its responses.
Comparison CompareOnce(const PairText& pair, const core::DiffOptions& options);

// Work counts the decomposed run collects next to its spans.
struct LayerCounts {
  double pairs = 0;
  double parsed_bytes = 0;
  double templates = 0;
  double template_nodes = 0;
  double seeds = 0;
  double seed_bytes = 0;
  double unique_lookups = 0;
  double unique_probes = 0;
  double cache_lookups = 0;
  double cache_hits = 0;
  double peak_live_nodes = 0;  // Max over managers.
  double mem_peak_bytes = 0;   // Max over managers.
  double localize_calls = 0;
  double localize_ranges = 0;
  double dag_nodes = 0;
  double differences = 0;
};

struct DecomposeOptions {
  core::DiffOptions diff;
  // Build the template the way the daemon's cache does on a miss: both
  // sides, then Reorder (when diff.reorder is on) and Compact.
  bool daemon_template = false;
};

// The comparison, layer by layer, in pipeline order: LoadConfig,
// ConfigCanonicalKey, MatchPolicies, the EncodingTemplate constructor
// (+ Reorder, + Compact), then per component pair SeedFrom and layout,
// SemanticDiff*, HeaderLocalize (and a PrefixRangeDag over the same
// ranges), Present*; then the structural diffs and Render. Returns the
// rendered report.
std::string DecomposedCompare(const PairText& pair,
                              const DecomposeOptions& options, SpanLog& log,
                              LayerCounts& counts);

// Compares the monolithic baseline's verdict with `report` for every
// route-map and ACL pair MatchPolicies finds. Returns the number of pairs
// checked; disagreements are appended to `errors`. `flip_first` inverts
// the expected verdict of the first pair (the benchmark's self-test of its
// own failure path).
int CheckVerdicts(const ir::RouterConfig& config1,
                  const ir::RouterConfig& config2,
                  const core::DiffReport& report, bool flip_first,
                  std::vector<std::string>* errors);

}  // namespace perfbench
