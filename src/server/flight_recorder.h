#pragma once

// Per-request flight recorder for the campion_serve daemon: a bounded ring
// of the last N diff executions — wall time, phase breakdown, cache
// disposition, template-key digest, status — with the full span tree and
// metrics snapshot retained only for the K slowest entries still in the
// ring. The point is post-hoc debugging of a live daemon ("why was that
// request slow?") at strictly bounded memory: summaries are a few hundred
// bytes each, and at most K of them carry a trace. `GET /debug/requests`
// renders the ring newest-first; `GET /debug/requests/<id>` renders one
// entry with its trace when retained.

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace campion::server {

// The pipeline phases of one diff execution, as {label, span}: the label
// keys the flight recorder's `phases` object ("<label>_ns") and the
// server.phase.<label>.* histograms; the phase time is the summed
// duration of the named span in the request's tree (obs::PhaseTotals).
// `template_fetch` and `render` are daemon-only spans.
inline constexpr std::array<std::pair<const char*, const char*>, 4> kPhases{{
    {"parse", "parse"},
    {"template", "template_fetch"},
    {"diff", "config_diff"},
    {"render", "render"},
}};

// A cache key digest as the debug views print it: 16 lowercase hex digits.
std::string KeyHashHex(std::uint64_t hash);

struct FlightRecord {
  std::uint64_t id = 0;        // Assigned by the recorder, monotone from 1.
  std::string endpoint;        // "/diff" or "/sessions/<name>/diff".
  int status = 0;              // HTTP status of the response.
  std::uint64_t wall_ns = 0;   // Whole RunDiff wall time.
  // Per kPhases entry, zero when the phase did not run (e.g. template on a
  // cache-ineligible request, everything after parse on a 422).
  std::array<std::uint64_t, kPhases.size()> phase_ns{};
  std::string cache;           // Template cache: "hit", "miss", or "off".
  std::uint64_t template_key_hash = 0;  // FNV-1a of the cache key; 0 = off.
  // Result cache: "hit", "miss", "bypass" (obs envelope requested), or
  // "off". On a hit the template phases above are zero — the response was
  // replayed, not recomputed.
  std::string result_cache = "off";
  std::uint64_t result_key_hash = 0;    // FNV-1a of the result key; 0 = off.
  bool equivalent = false;
  std::size_t differences = 0;
  // Retained only while this record is among the K slowest in the ring.
  std::vector<obs::Span> spans;
  std::vector<obs::MetricSample> metrics;
};

class FlightRecorder {
 public:
  struct Options {
    std::size_t entries = 64;    // Ring capacity N (>= 1 enforced).
    std::size_t span_slots = 8;  // Slowest-K records that keep their trace.
  };

  explicit FlightRecorder(Options options);

  // Assigns the record's id, appends it (evicting the oldest past N), and
  // re-enforces the slowest-K trace retention. Thread-safe.
  void Record(FlightRecord record);

  // {"requests":[...]} — newest first, summaries only (no span trees).
  std::string ListJson() const;

  // Full entry JSON including the retained trace (or "trace": null when the
  // spans were shed). False when no record with this id is in the ring.
  bool EntryJson(std::uint64_t id, std::string* out) const;

  std::size_t size() const;
  // Records currently holding a span tree (<= span_slots); tests pin the
  // memory bound with this.
  std::size_t TraceCount() const;

 private:
  Options options_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::deque<FlightRecord> ring_;  // Front = oldest.
};

}  // namespace campion::server
