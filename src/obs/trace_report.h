#pragma once

// Rendering of collected traces: the machine-readable JSON document behind
// `--trace_out` (schema in docs/trace_format.md), the human-readable
// summary tables behind `--stats`, the per-phase aggregations the bench
// binaries record into BENCH_*.json, and the two /metrics expositions of
// the campion_serve daemon.

#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace campion::obs {

// Serializes the span forest plus a metrics snapshot as the versioned JSON
// document documented in docs/trace_format.md.
std::string TraceToJson(
    const std::vector<Span>& roots,
    const std::vector<MetricSample>& metrics);

// Serializes the same forest as Chrome Trace Event JSON (complete "X"
// events, microsecond timestamps) loadable in Perfetto or chrome://tracing.
// Spans from the per-pair worker tasks ("route_map_pair" / "acl_pair", and
// everything nested under them) are laid out on synthetic tids numbered in
// pair-declaration order, so two traces of the same comparison get the
// same visual layout at any `--threads` value; all other spans render on
// tid 0 ("main"). Events are sorted by timestamp. The metrics snapshot
// rides along under "otherData". docs/trace_format.md documents the
// mapping.
std::string TraceToChromeJson(
    const std::vector<Span>& roots,
    const std::vector<MetricSample>& metrics);

// Totals aggregated per span name across the whole forest, every depth
// included, in first-appearance order (deterministic for a deterministic
// tree).
struct PhaseTotal {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  // Sum of span durations.
  std::uint64_t self_ns = 0;   // Durations minus direct children's.
};
std::vector<PhaseTotal> PhaseTotals(const std::vector<Span>& roots);

// The `--stats` summary: a phase-timing table and a metrics table
// (rendered with util::TextTable), plus derived BDD rates when the
// underlying counters are present.
std::string RenderStatsSummary(
    const std::vector<Span>& roots,
    const std::vector<MetricSample>& metrics);

// Structure-only view of the forest (names, details, nesting — no timings
// or attrs): one span per line, two-space indentation per level. This is
// the part of a trace that is guaranteed byte-identical across
// `--threads` values; the determinism tests compare it.
std::string TraceStructure(const std::vector<Span>& roots);

// One /metrics scrape: typed samples plus latency families. The two
// renderers below are the only place either exposition format is spelled
// out; docs/trace_format.md names every family they can emit.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;
  std::vector<LatencyFamilySnapshot> latencies;
};

// `name value` lines plus a `.count/.mean_ns/.p50_ns/.p95_ns/.p99_ns`
// block per histogram, all sorted by name.
std::string RenderMetricsText(const MetricsSnapshot& snapshot);

// Prometheus text exposition 0.0.4: names gain a `campion_` prefix with
// dots as underscores, samples are typed by their kind, and each latency
// family is one histogram family with cumulative `_bucket{le=}` series
// (non-empty buckets plus +Inf), `_sum`, and `_count`.
std::string RenderMetricsPrometheus(const MetricsSnapshot& snapshot);

}  // namespace campion::obs
