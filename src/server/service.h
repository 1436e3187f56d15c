#pragma once

// DiffService: the campion_serve daemon's request brain (docs/daemon.md is
// the API reference; this header documents the implementation contract).
//
// Endpoints:
//   GET  /healthz                       liveness probe
//   GET  /metrics                       cumulative daemon metrics, text
//                                       (?format=prometheus for scrapers)
//   POST /diff                          one-shot comparison (JSON body)
//   POST /batch                         many named pairs in one request,
//                                       responses merged in declaration
//                                       order (byte-identical at any
//                                       --http_threads/--threads)
//   GET  /sessions                      list sessions (JSON)
//   PUT  /sessions/<name>/running       upload the running config (raw text)
//   PUT  /sessions/<name>/candidate     upload the candidate config
//   GET  /sessions/<name>               session status (JSON)
//   GET  /sessions/<name>/diff          diff running vs candidate
//   POST /sessions/<name>/commit        promote candidate to running
//   POST /sessions/<name>/rollback      discard the candidate
//   DELETE /sessions/<name>             drop the session
//   GET  /debug/requests                flight recorder: last-N summaries
//   GET  /debug/requests/<id>           one entry, with trace when retained
//   GET  /debug/cache                   per-entry template-cache view
//   GET  /debug/result_cache            per-entry result-cache view
//   GET  /debug/sessions                session detail (sizes, vendors)
//
// Determinism contract: a /diff (or session diff) response body is the
// EXACT byte sequence the one-shot CLI writes to stdout for the same two
// configs and format, at every `--threads` value — request metadata
// travels in X-Campion-* headers, never in the body, so `curl | diff -`
// against the CLI is the CI smoke check. The optional obs envelope
// (`"obs": true` / `?obs=1`) is the one deliberate exception: it wraps the
// report in JSON together with the request's span tree and metrics.
//
// Concurrency model: requests run the full parse→template→diff→render
// pipeline CONCURRENTLY, one per connection worker, each still fanning out
// over `--threads` workers inside ConfigDiff. What makes that sound is
// scoped observability capture: every request records into its own
// obs::MetricsSink (threaded through DiffOptions::metrics_sink so the
// pooled pair tasks land there too) and its own thread-local span buffer,
// and the service merges the private snapshot into the daemon totals only
// at request completion. The only cross-request serialization
// left is the template cache's build lock, which exists to deduplicate
// simultaneous misses on one key, not to order requests; cache hits never
// wait on it.

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/config_diff.h"
#include "ir/config.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace_report.h"
#include "server/flight_recorder.h"
#include "server/http.h"
#include "server/result_cache.h"
#include "server/template_cache.h"

namespace campion::server {

struct ServiceOptions {
  // Baseline diff options for every request: threads, template on/off,
  // reorder mode. Per-request JSON fields override checks/format only,
  // never the performance knobs (those are fleet configuration).
  core::DiffOptions diff;
  // Cross-request template cache (off = every request builds privately,
  // exactly like the CLI).
  bool cache = true;
  // LRU byte watermark over the cached templates' resident bytes (each
  // template is compacted after its build).
  std::size_t gc_watermark_bytes = 256 * 1024 * 1024;
  std::size_t cache_max_entries = 0;  // 0 = unlimited.
  // Incremental result cache (src/server/result_cache.h): rendered pair
  // responses keyed by the full canonical structure of both configs plus
  // the diff-relevant options. Off = every request re-runs the pipeline
  // (the bench_fleet A/B baseline and the parity reference).
  bool result_cache = true;
  std::size_t result_cache_watermark_bytes = 64 * 1024 * 1024;
  std::size_t result_cache_max_entries = 0;  // 0 = unlimited.
  // Flight recorder (src/server/flight_recorder.h): ring of the last
  // `flight_recorder_entries` diff executions, span trees retained for the
  // `flight_recorder_spans` slowest. Off = record nothing (/debug/requests
  // answers 404; the bench A/B pins the overhead of "on").
  bool flight_recorder = true;
  std::size_t flight_recorder_entries = 64;
  std::size_t flight_recorder_spans = 8;
};

class DiffService {
 public:
  explicit DiffService(ServiceOptions options);

  // Thread-safe: called concurrently by HttpServer's connection workers.
  HttpResponse Handle(const HttpRequest& request);

  TemplateCache::Stats CacheStats() const { return cache_.GetStats(); }
  ResultCache::Stats ResultCacheStats() const {
    return result_cache_.GetStats();
  }
  const FlightRecorder& Recorder() const { return flight_; }

  // Wires the transport's keep-alive reuse counter into /metrics
  // (`server.keepalive_reuses`). The service cannot own the HttpServer —
  // the server owns the handler that calls the service — so the binary
  // connects them after both exist. Unset reads as 0.
  void SetKeepaliveReuses(std::function<std::uint64_t()> fn) {
    keepalive_reuses_ = std::move(fn);
  }

 private:
  struct Session {
    // Configs are stored as text and re-parsed per diff: parsing is cheap
    // next to the semantic diff, and storing text keeps commit/rollback
    // trivially exact (no IR round-trip).
    std::string running;
    std::string candidate;
    std::string running_vendor = "auto";    // As uploaded (?vendor=).
    std::string candidate_vendor = "auto";
  };

  HttpResponse Dispatch(const HttpRequest& request);
  HttpResponse HandleDiff(const HttpRequest& request);
  HttpResponse HandleBatch(const HttpRequest& request);
  HttpResponse HandleMetrics(const HttpRequest& request);
  HttpResponse HandleSessions(const HttpRequest& request);
  HttpResponse HandleDebug(const HttpRequest& request);

  // One comparison, described transport-free so /diff, session diffs, and
  // every pair of a /batch share the execution path.
  struct PairTask {
    std::string endpoint;  // Flight-recorder label ("/diff", "/batch#a").
    std::string text1;
    std::string vendor1;
    std::string text2;
    std::string vendor2;
    core::DiffOptions options;
    bool json_format = false;
    bool want_obs = false;  // Obs envelope; bypasses the result cache.
  };
  struct PairOutcome {
    int status = 200;
    std::string body;  // Report body (or obs envelope); error JSON on !ok.
    std::string content_type;
    bool equivalent = false;
    std::size_t differences = 0;
    std::string template_cache = "off";  // "hit", "miss", or "off"; on a
                                         // result-cache hit, replayed from
                                         // the run that computed the entry.
    std::string result_cache = "off";    // "hit", "miss", "bypass", "off".
    std::uint64_t result_key_hash = 0;   // FNV-1a of the result-cache key.
    std::string error;                   // Non-empty when status != 200.
  };

  // Parses, diffs, and renders one comparison with task-private
  // observability capture (no cross-request lock — safe to call
  // concurrently from batch workers). Consults the result cache first
  // (a hit skips template fetch, diff, and render), folds the task's
  // metrics, and leaves one flight-recorder entry behind when the
  // recorder is on.
  PairOutcome ExecutePair(const PairTask& task);

  // ExecutePair wrapped back into an HTTP response (headers + error
  // passthrough) for the single-pair endpoints.
  HttpResponse RunDiff(const PairTask& task);

  // Validates and applies the request knobs /diff, /batch, and session
  // diffs share: vendors, `format` (sets `json_format`), and `checks`
  // (rewrites `options`); null means absent. An invalid value returns its
  // 400 response, counted in server.errors.
  std::optional<HttpResponse> ParseDiffKnobs(
      std::initializer_list<const std::string*> vendors,
      const std::string* format, const std::string* checks,
      core::DiffOptions* options, bool* json_format);

  // One /metrics scrape: the folded request metrics, the server counters,
  // the caches' and sessions' current state, and the latency families.
  obs::MetricsSnapshot Telemetry();

  // A JSON error response that also counts in server.errors.
  HttpResponse Fail(int status, const std::string& message);
  void BumpCounter(const char* name, double delta = 1.0) {
    totals_.Add(name, delta);
  }

  ServiceOptions options_;
  TemplateCache cache_;
  ResultCache result_cache_;
  FlightRecorder flight_;
  std::function<std::uint64_t()> keepalive_reuses_;

  std::mutex sessions_mutex_;
  std::map<std::string, Session> sessions_;

  // Daemon-cumulative metrics: server.* counters plus every request's
  // sink snapshot, merged by kind (counters sum, gauges keep the max).
  obs::MetricsSink totals_;
  // Wall time of every request; of each endpoint class; of each kPhases
  // phase of a diff execution.
  obs::LatencyFamily request_latency_{
      "server.latency", "campion_request_duration_ns", "", {"request"}};
  obs::LatencyFamily endpoint_latency_{
      "server.latency", "campion_endpoint_duration_ns", "endpoint",
      {"healthz", "metrics", "diff", "batch", "sessions", "debug", "other"}};
  obs::LatencyFamily phase_latency_;
};

}  // namespace campion::server
