#include "server/service.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

#include "core/json_report.h"
#include "encode/fingerprint.h"
#include "frontend/loader.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_report.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace campion::server {

namespace {

HttpResponse JsonError(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = "{\"error\":\"" + util::JsonEscape(message) + "\"}\n";
  return response;
}

HttpResponse JsonOk(const std::string& body) {
  HttpResponse response;
  response.content_type = "application/json";
  response.body = body;
  return response;
}

constexpr char kVendorError[] = "vendor must be auto, cisco, or juniper";

bool ValidVendor(const std::string& value) {
  return value.empty() || value == "auto" || value == "cisco" ||
         value == "juniper";
}

// A JSON field's text, or null when the field is absent (or, with
// `string_only`, not a string).
const std::string* FieldText(const util::JsonValue& object, const char* key,
                             bool string_only = false) {
  const util::JsonValue* value = object.Find(key);
  if (value == nullptr || (string_only && !value->IsString())) return nullptr;
  return &value->string;
}

// Same grammar as the CLI's --checks flag; false on an unknown item.
bool ParseChecks(const std::string& list, core::DiffOptions* checks,
                 std::string* error) {
  checks->check_route_maps = false;
  checks->check_acls = false;
  checks->check_static_routes = false;
  checks->check_connected_routes = false;
  checks->check_ospf = false;
  checks->check_bgp_properties = false;
  checks->check_admin_distances = false;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    std::string item = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (item == "route-maps") {
      checks->check_route_maps = true;
    } else if (item == "acls") {
      checks->check_acls = true;
    } else if (item == "static") {
      checks->check_static_routes = true;
    } else if (item == "connected") {
      checks->check_connected_routes = true;
    } else if (item == "ospf") {
      checks->check_ospf = true;
    } else if (item == "bgp") {
      checks->check_bgp_properties = true;
    } else if (item == "admin") {
      checks->check_admin_distances = true;
    } else if (!item.empty()) {
      *error = "unknown check '" + item + "'";
      return false;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
}

bool ValidSessionName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

// The endpoint_latency_ label of a request path.
const char* EndpointLabel(const std::string& path) {
  const bool session = path == "/sessions" || path.rfind("/sessions/", 0) == 0;
  if (path == "/healthz") return "healthz";
  if (path == "/metrics") return "metrics";
  if (path == "/batch") return "batch";
  if (path == "/diff" || (session && path.ends_with("/diff"))) return "diff";
  if (session) return "sessions";
  if (path.rfind("/debug/", 0) == 0) return "debug";
  return "other";
}

// One cache's cumulative counters and current state, as /metrics names
// them: `<prefix>{hits,misses,evictions}` and, as gauges,
// `<prefix>{entries,resident_bytes}`.
void AddCacheStats(obs::MetricsSink& view, const std::string& prefix,
                   const LruStats& stats) {
  view.Add(prefix + "hits", stats.hits);
  view.Add(prefix + "misses", stats.misses);
  view.Add(prefix + "evictions", stats.evictions);
  view.Max(prefix + "entries", stats.entries);
  view.Max(prefix + "resident_bytes", stats.resident_bytes);
}

// The /debug/cache and /debug/result_cache body: the cache's stats and one
// row per resident entry, most recently used first; `fields` appends the
// cache's own columns to each row.
template <typename V, typename Fields>
std::string CacheDebugJson(const LruStats& stats,
                           const std::vector<LruEntry<V>>& entries,
                           Fields fields) {
  std::ostringstream out;
  out << "{\"hits\":" << stats.hits << ",\"misses\":" << stats.misses
      << ",\"evictions\":" << stats.evictions
      << ",\"resident_bytes\":" << stats.resident_bytes << ",\"entries\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const LruEntry<V>& entry = entries[i];
    out << (i == 0 ? "" : ",") << "{\"key\":\"" << KeyHashHex(entry.key_hash)
        << "\",\"resident_bytes\":" << entry.resident_bytes
        << ",\"hits\":" << entry.hits;
    fields(out, entry);
    out << '}';
  }
  out << "]}\n";
  return out.str();
}

// The result-cache key: both configs' full canonical serializations plus
// every option the response bytes depend on. The performance knobs
// (threads, template, reorder) are deliberately absent — the determinism
// contract pins the body as byte-identical across all of them.
std::string ResultCacheKeyFor(const ir::RouterConfig& config1,
                              const ir::RouterConfig& config2,
                              const core::DiffOptions& options,
                              bool json_format) {
  std::string key = encode::ConfigCanonicalKey(config1);
  key += '\037';
  key += encode::ConfigCanonicalKey(config2);
  key += "\037checks=";
  key += options.check_route_maps ? 'r' : '-';
  key += options.check_acls ? 'a' : '-';
  key += options.check_static_routes ? 's' : '-';
  key += options.check_connected_routes ? 'c' : '-';
  key += options.check_ospf ? 'o' : '-';
  key += options.check_bgp_properties ? 'b' : '-';
  key += options.check_admin_distances ? 'd' : '-';
  key += ";format=";
  key += json_format ? "json" : "text";
  return key;
}

}  // namespace

DiffService::DiffService(ServiceOptions options)
    : options_(std::move(options)),
      cache_([&] {
        TemplateCache::Options cache_options;
        cache_options.reorder = options_.diff.reorder;
        cache_options.max_resident_bytes = options_.gc_watermark_bytes;
        cache_options.max_entries = options_.cache_max_entries;
        return cache_options;
      }()),
      result_cache_([&] {
        ResultCache::Options result_options;
        result_options.max_resident_bytes =
            options_.result_cache_watermark_bytes;
        result_options.max_entries = options_.result_cache_max_entries;
        return result_options;
      }()),
      flight_([&] {
        FlightRecorder::Options flight_options;
        flight_options.entries = options_.flight_recorder_entries;
        flight_options.span_slots = options_.flight_recorder_spans;
        return flight_options;
      }()),
      phase_latency_("server.phase", "campion_phase_duration_ns", "phase", [] {
        std::vector<std::string> labels;
        for (const auto& [label, span] : kPhases) labels.push_back(label);
        return labels;
      }()) {
  // Tracing stays on for the daemon's lifetime. Toggling it per request —
  // what the serialized pipeline used to do — is a race once requests run
  // concurrently, and leaving it on is free for correctness: the capture
  // is purely observational and every response body stays CLI
  // byte-identical (pinned by tests/server/server_test.cc).
  obs::SetEnabled(true);
}

HttpResponse DiffService::Handle(const HttpRequest& request) {
  const std::uint64_t start_ns = obs::NowNs();
  HttpResponse response = Dispatch(request);
  const std::uint64_t wall_ns = obs::NowNs() - start_ns;
  request_latency_.Record("request", wall_ns);
  endpoint_latency_.Record(EndpointLabel(request.path), wall_ns);
  return response;
}

HttpResponse DiffService::Dispatch(const HttpRequest& request) {
  BumpCounter("server.requests_total");
  if (request.path == "/healthz") {
    if (request.method != "GET") return JsonError(405, "use GET");
    HttpResponse response;
    response.body = "ok\n";
    return response;
  }
  if (request.path == "/metrics") {
    if (request.method != "GET") return JsonError(405, "use GET");
    return HandleMetrics(request);
  }
  if (request.path == "/diff") {
    if (request.method != "POST") return JsonError(405, "use POST");
    return HandleDiff(request);
  }
  if (request.path == "/batch") {
    if (request.method != "POST") return JsonError(405, "use POST");
    return HandleBatch(request);
  }
  if (request.path == "/sessions" || request.path.rfind("/sessions/", 0) == 0) {
    return HandleSessions(request);
  }
  if (request.path.rfind("/debug/", 0) == 0) {
    return HandleDebug(request);
  }
  return Fail(404, "unknown endpoint " + request.path);
}

HttpResponse DiffService::Fail(int status, const std::string& message) {
  BumpCounter("server.errors");
  return JsonError(status, message);
}

std::optional<HttpResponse> DiffService::ParseDiffKnobs(
    std::initializer_list<const std::string*> vendors,
    const std::string* format, const std::string* checks,
    core::DiffOptions* options, bool* json_format) {
  for (const std::string* vendor : vendors) {
    if (vendor != nullptr && !ValidVendor(*vendor)) {
      return Fail(400, kVendorError);
    }
  }
  if (format != nullptr) {
    if (*format != "text" && *format != "json") {
      return Fail(400, "format must be text or json");
    }
    *json_format = *format == "json";
  }
  std::string error;
  if (checks != nullptr && !ParseChecks(*checks, options, &error)) {
    return Fail(400, error);
  }
  return std::nullopt;
}

HttpResponse DiffService::HandleDiff(const HttpRequest& request) {
  util::JsonValue body;
  std::string parse_error;
  if (!util::ParseJson(request.body, body, &parse_error) || !body.IsObject()) {
    return Fail(400, "request body must be a JSON object: " + parse_error);
  }
  const util::JsonValue* config1 = body.Find("config1");
  const util::JsonValue* config2 = body.Find("config2");
  if (config1 == nullptr || !config1->IsString() || config2 == nullptr ||
      !config2->IsString()) {
    return Fail(400, "fields 'config1' and 'config2' (strings) are required");
  }
  const std::string* vendor1 = FieldText(body, "vendor1");
  const std::string* vendor2 = FieldText(body, "vendor2");
  core::DiffOptions diff_options = options_.diff;
  bool json_format = false;
  if (auto error = ParseDiffKnobs({vendor1, vendor2}, FieldText(body, "format"),
                                  FieldText(body, "checks", true),
                                  &diff_options, &json_format)) {
    return *error;
  }
  const util::JsonValue* want_obs = body.Find("obs");
  BumpCounter("server.diff_requests");
  return RunDiff({.endpoint = "/diff",
                  .text1 = config1->string,
                  .vendor1 = vendor1 ? *vendor1 : "auto",
                  .text2 = config2->string,
                  .vendor2 = vendor2 ? *vendor2 : "auto",
                  .options = diff_options,
                  .json_format = json_format,
                  .want_obs = want_obs != nullptr && want_obs->boolean});
}

DiffService::PairOutcome DiffService::ExecutePair(const PairTask& task) {
  // Task-private capture: this sink collects every metric the task
  // produces — on this thread via the scope below, and on ConfigDiff's
  // pooled pair tasks via DiffOptions::metrics_sink. No cross-request
  // lock; concurrent tasks each merge their own snapshot at the end.
  obs::MetricsSink sink;
  obs::MetricsScope metrics_scope(sink);
  obs::ResetThreadTrace();

  FlightRecord record;
  record.endpoint = task.endpoint;
  PairOutcome outcome;
  const std::uint64_t wall_start = obs::NowNs();
  // Every exit merges the task's metrics into the daemon totals and takes
  // the phase times from its span tree; the recorder sheds the trace
  // again unless this request ranks among the slowest K in the ring.
  auto finish = [&] {
    record.wall_ns = obs::NowNs() - wall_start;
    record.status = outcome.status;
    record.cache = outcome.template_cache;
    record.result_cache = outcome.result_cache;
    record.result_key_hash = outcome.result_key_hash;
    record.equivalent = outcome.equivalent;
    record.differences = outcome.differences;
    record.spans = obs::TakeThreadSpans();
    record.metrics = sink.Snapshot();
    totals_.Merge(record.metrics);
    for (const obs::PhaseTotal& total : obs::PhaseTotals(record.spans)) {
      for (std::size_t i = 0; i < kPhases.size(); ++i) {
        if (total.name != kPhases[i].second) continue;
        record.phase_ns[i] = total.total_ns;
        phase_latency_.Record(kPhases[i].first, total.total_ns);
      }
    }
    if (options_.flight_recorder) flight_.Record(std::move(record));
    return outcome;
  };
  auto fail = [&](int status, const std::string& message) {
    outcome.status = status;
    outcome.error = message;
    outcome.content_type = "application/json";
    outcome.body = "{\"error\":\"" + util::JsonEscape(message) + "\"}\n";
    return finish();
  };

  frontend::LoadResult loaded1;
  frontend::LoadResult loaded2;
  try {
    loaded1 = frontend::LoadConfig(task.text1, "config1",
                                   frontend::ParseVendor(task.vendor1));
    loaded2 = frontend::LoadConfig(task.text2, "config2",
                                   frontend::ParseVendor(task.vendor2));
  } catch (const std::exception& error) {
    BumpCounter("server.errors");
    BumpCounter("server.parse_failures");
    return fail(422, error.what());
  }

  // Result-cache consult: a hit replays the rendered response and skips
  // template fetch, diff, and render — the incremental re-diff shortcut.
  // Only the parse above was paid (the fingerprint needs the IR). Obs
  // requests bypass: their envelope carries this request's live trace.
  std::string result_key;
  const bool result_eligible = options_.result_cache && !task.want_obs;
  if (result_eligible) {
    result_key = ResultCacheKeyFor(loaded1.config, loaded2.config,
                                   task.options, task.json_format);
    if (std::shared_ptr<const ResultCache::Result> cached =
            result_cache_.Get(result_key, &outcome.result_key_hash)) {
      outcome.result_cache = "hit";
      outcome.body = cached->body;
      outcome.content_type = cached->content_type;
      outcome.equivalent = cached->equivalent;
      outcome.differences = cached->differences;
      outcome.template_cache = cached->template_cache;
      record.template_key_hash = cached->template_key_hash;
      return finish();
    }
    outcome.result_cache = "miss";
  } else if (options_.result_cache) {
    outcome.result_cache = "bypass";
  }

  core::DiffOptions diff_options = task.options;
  diff_options.metrics_sink = &sink;
  std::shared_ptr<const encode::EncodingTemplate> tmpl;
  if (options_.cache && diff_options.use_encoding_template &&
      (diff_options.check_route_maps || diff_options.check_acls)) {
    obs::ScopedSpan span("template_fetch");
    bool cache_hit = false;
    tmpl = cache_.Get(loaded1.config, loaded2.config, &cache_hit,
                      &record.template_key_hash);
    diff_options.external_template = tmpl.get();
    outcome.template_cache = cache_hit ? "hit" : "miss";
  }

  core::DiffReport report;
  try {
    report = core::ConfigDiff(loaded1.config, loaded2.config, diff_options);
  } catch (const std::exception& error) {
    BumpCounter("server.errors");
    return fail(500, error.what());
  }

  std::string report_body;
  {
    obs::ScopedSpan span("render");
    report_body = task.json_format
                      ? core::ReportToJson(report, loaded1.config.hostname,
                                           loaded2.config.hostname)
                      : report.Render();
  }
  outcome.equivalent = report.Equivalent();
  outcome.differences = report.entries.size();

  if (task.want_obs) {
    // The one response shape that is NOT CLI byte-identical, by request:
    // the report plus this request's span tree and metrics snapshot.
    std::vector<obs::Span> spans = obs::TakeThreadSpans();
    outcome.content_type = "application/json";
    std::ostringstream out;
    out << "{\"report\":"
        << core::ReportJsonFragment(report_body, task.json_format)
        << ",\"equivalent\":" << (report.Equivalent() ? "true" : "false")
        << ",\"obs\":" << obs::TraceToJson(spans, sink.Snapshot()) << "}\n";
    outcome.body = out.str();
    obs::AttachSpans(std::move(spans));  // finish() records them too.
  } else {
    outcome.content_type =
        task.json_format ? "application/json" : "text/plain; charset=utf-8";
    outcome.body = report_body;
  }

  if (result_eligible) {
    auto cached = std::make_shared<ResultCache::Result>();
    cached->body = outcome.body;
    cached->content_type = outcome.content_type;
    cached->equivalent = outcome.equivalent;
    cached->differences = outcome.differences;
    cached->template_cache = outcome.template_cache;
    cached->template_key_hash = record.template_key_hash;
    result_cache_.Put(std::move(result_key), std::move(cached));
  }
  return finish();
}

HttpResponse DiffService::RunDiff(const PairTask& task) {
  PairOutcome outcome = ExecutePair(task);
  HttpResponse response;
  response.status = outcome.status;
  response.content_type = outcome.content_type;
  response.body = std::move(outcome.body);
  if (outcome.status == 200) {
    response.headers.emplace_back("X-Campion-Equivalent",
                                  outcome.equivalent ? "true" : "false");
    response.headers.emplace_back("X-Campion-Differences",
                                  std::to_string(outcome.differences));
    response.headers.emplace_back("X-Campion-Template-Cache",
                                  outcome.template_cache);
    response.headers.emplace_back("X-Campion-Result-Cache",
                                  outcome.result_cache);
  }
  return response;
}

HttpResponse DiffService::HandleBatch(const HttpRequest& request) {
  util::JsonValue body;
  std::string parse_error;
  if (!util::ParseJson(request.body, body, &parse_error)) {
    return Fail(400, "request body must be JSON: " + parse_error);
  }
  // Either {"pairs": [...], "format": ..., "checks": ...} or a bare array
  // of pair objects.
  const util::JsonValue* pairs_json = body.IsArray() ? &body : nullptr;
  bool json_format = false;
  core::DiffOptions diff_options = options_.diff;
  if (body.IsObject()) {
    pairs_json = body.Find("pairs");
    if (auto error = ParseDiffKnobs({}, FieldText(body, "format"),
                                    FieldText(body, "checks", true),
                                    &diff_options, &json_format)) {
      return *error;
    }
  }
  if (pairs_json == nullptr || !pairs_json->IsArray() ||
      pairs_json->array.empty()) {
    return Fail(400,
                "field 'pairs' (non-empty array of pair objects) is "
                "required");
  }
  // Each pair fans its ConfigDiff out over one worker: the batch itself is
  // the parallelism (pair granularity), and nesting pools would
  // oversubscribe. The response is byte-identical either way.
  diff_options.num_threads = 1;

  std::vector<PairTask> tasks;
  tasks.reserve(pairs_json->array.size());
  for (const util::JsonValue& pair : pairs_json->array) {
    if (!pair.IsObject()) return Fail(400, "each pair must be a JSON object");
    const util::JsonValue* name = pair.Find("name");
    const util::JsonValue* config1 = pair.Find("config1");
    const util::JsonValue* config2 = pair.Find("config2");
    if (name == nullptr || !name->IsString() || name->string.empty() ||
        config1 == nullptr || !config1->IsString() || config2 == nullptr ||
        !config2->IsString()) {
      return Fail(400,
                  "each pair requires 'name', 'config1', and 'config2' "
                  "(strings)");
    }
    const std::string* vendor1 = FieldText(pair, "vendor1");
    const std::string* vendor2 = FieldText(pair, "vendor2");
    if (auto error = ParseDiffKnobs({vendor1, vendor2}, nullptr, nullptr,
                                    &diff_options, &json_format)) {
      return *error;
    }
    tasks.push_back({.endpoint = "/batch#" + name->string,
                     .text1 = config1->string,
                     .vendor1 = vendor1 ? *vendor1 : "auto",
                     .text2 = config2->string,
                     .vendor2 = vendor2 ? *vendor2 : "auto",
                     .options = diff_options,
                     .json_format = json_format});
  }
  BumpCounter("server.batch_requests");
  BumpCounter("server.batch_pairs", static_cast<double>(tasks.size()));

  // Largest-first schedule: FIFO submission order is execution order, so
  // sorting the index permutation by total config bytes (descending) keeps
  // the biggest pairs from landing last and serializing the batch tail.
  // Results land in declaration-order slots, so the merged response is
  // byte-identical at any worker count.
  std::vector<std::size_t> schedule(tasks.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) schedule[i] = i;
  std::sort(schedule.begin(), schedule.end(),
            [&](std::size_t a, std::size_t b) {
              const std::size_t size_a = tasks[a].text1.size() +
                                         tasks[a].text2.size();
              const std::size_t size_b = tasks[b].text1.size() +
                                         tasks[b].text2.size();
              if (size_a != size_b) return size_a > size_b;
              return a < b;
            });
  std::vector<PairOutcome> outcomes(tasks.size());
  const unsigned workers = util::ResolveThreadCount(options_.diff.num_threads);
  util::RunParallel(workers, tasks.size(), [&](std::size_t i) {
    const std::size_t pair_index = schedule[i];
    outcomes[pair_index] = ExecutePair(tasks[pair_index]);
  });

  // Merge in declaration order.
  bool all_ok = true;
  bool all_equivalent = true;
  bool all_hits = true;
  std::size_t total_differences = 0;
  std::ostringstream out;
  out << "{\"pairs\":[";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const PairOutcome& outcome = outcomes[i];
    const util::JsonValue& pair = pairs_json->array[i];
    if (i > 0) out << ',';
    out << "\n{\"name\":\"" << util::JsonEscape(pair.Find("name")->string)
        << "\",\"status\":" << outcome.status;
    if (outcome.status != 200) {
      out << ",\"error\":\"" << util::JsonEscape(outcome.error) << "\"}";
      all_ok = false;
      all_equivalent = false;
      all_hits = false;
      continue;
    }
    // Cache dispositions deliberately stay OUT of the body: the batch
    // response must be byte-identical with the result cache on or off and
    // at any worker count. Dispositions live in the X-Campion-Result-Cache
    // header, /metrics, and the flight recorder.
    out << ",\"equivalent\":" << (outcome.equivalent ? "true" : "false")
        << ",\"differences\":" << outcome.differences << ",\"report\":"
        << core::ReportJsonFragment(outcome.body, json_format) << '}';
    all_equivalent = all_equivalent && outcome.equivalent;
    all_hits = all_hits && outcome.result_cache == "hit";
    total_differences += outcome.differences;
  }
  out << "\n],\"pairs_total\":" << tasks.size()
      << ",\"equivalent\":" << (all_ok && all_equivalent ? "true" : "false")
      << "}\n";

  HttpResponse response;
  response.content_type = "application/json";
  response.body = out.str();
  response.headers.emplace_back("X-Campion-Batch-Pairs",
                                std::to_string(tasks.size()));
  response.headers.emplace_back(
      "X-Campion-Equivalent", all_ok && all_equivalent ? "true" : "false");
  response.headers.emplace_back("X-Campion-Differences",
                                std::to_string(total_differences));
  response.headers.emplace_back(
      "X-Campion-Result-Cache",
      options_.result_cache ? (all_hits ? "hit" : "miss") : "off");
  return response;
}

HttpResponse DiffService::HandleMetrics(const HttpRequest& request) {
  const std::string format = request.QueryParam("format", "text");
  if (format != "text" && format != "prometheus") {
    return Fail(400, "format must be text or prometheus");
  }
  HttpResponse response;
  if (format == "prometheus") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::RenderMetricsPrometheus(Telemetry());
  } else {
    response.body = obs::RenderMetricsText(Telemetry());
  }
  return response;
}

obs::MetricsSnapshot DiffService::Telemetry() {
  obs::MetricsSink view;
  view.Merge(totals_.Snapshot());
  // Current state joins as gauges; Max into the fresh sink sets them.
  const TemplateCache::Stats tc = cache_.GetStats();
  view.Add("server.keepalive_reuses",
           keepalive_reuses_ ? keepalive_reuses_() : 0);
  AddCacheStats(view, "server.template_cache_", tc);
  view.Add("server.template_cache_gc_reclaimed_nodes", tc.gc_reclaimed_nodes);
  view.Add("server.template_cache_gc_compacted_bytes", tc.gc_compacted_bytes);
  AddCacheStats(view, "server.result_cache_", result_cache_.GetStats());
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    view.Max("server.sessions", sessions_.size());
  }
  return {view.Snapshot(),
          {request_latency_.Snapshot(), endpoint_latency_.Snapshot(),
           phase_latency_.Snapshot()}};
}

HttpResponse DiffService::HandleDebug(const HttpRequest& request) {
  if (request.method != "GET") return JsonError(405, "use GET");
  BumpCounter("server.debug_requests");
  if (request.path == "/debug/requests" ||
      request.path.rfind("/debug/requests/", 0) == 0) {
    if (!options_.flight_recorder) {
      return Fail(404, "flight recorder is disabled");
    }
    if (request.path == "/debug/requests") {
      return JsonOk(flight_.ListJson());
    }
    const std::string id_text =
        request.path.substr(std::string("/debug/requests/").size());
    char* end = nullptr;
    const std::uint64_t id = std::strtoull(id_text.c_str(), &end, 10);
    if (id_text.empty() || end == nullptr || *end != '\0') {
      return Fail(400, "request id must be a decimal integer");
    }
    std::string body;
    if (!flight_.EntryJson(id, &body)) {
      return Fail(404, "no request " + id_text + " in the ring");
    }
    return JsonOk(body);
  }
  if (request.path == "/debug/cache") {
    return JsonOk(CacheDebugJson(
        cache_.GetStats(), cache_.Entries(),
        [](std::ostream& out, const auto& entry) {
          out << ",\"build_seq\":" << entry.seq;
        }));
  }
  if (request.path == "/debug/result_cache") {
    return JsonOk(CacheDebugJson(
        result_cache_.GetStats(), result_cache_.Entries(),
        [](std::ostream& out, const auto& entry) {
          out << ",\"equivalent\":"
              << (entry.value->equivalent ? "true" : "false")
              << ",\"differences\":" << entry.value->differences;
        }));
  }
  if (request.path == "/debug/sessions") {
    std::ostringstream out;
    out << "{\"sessions\":[";
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    bool first = true;
    for (const auto& [name, session] : sessions_) {
      if (!first) out << ',';
      first = false;
      out << "{\"name\":\"" << util::JsonEscape(name)
          << "\",\"running_bytes\":" << session.running.size()
          << ",\"running_vendor\":\"" << util::JsonEscape(session.running_vendor)
          << "\",\"candidate_bytes\":" << session.candidate.size()
          << ",\"candidate_vendor\":\""
          << util::JsonEscape(session.candidate_vendor) << "\"}";
    }
    out << "]}\n";
    return JsonOk(out.str());
  }
  return Fail(404, "unknown endpoint " + request.path);
}

HttpResponse DiffService::HandleSessions(const HttpRequest& request) {
  BumpCounter("server.session_requests");
  if (request.path == "/sessions") {
    if (request.method != "GET") return JsonError(405, "use GET");
    std::ostringstream out;
    out << "{\"sessions\":[";
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    bool first = true;
    for (const auto& [name, session] : sessions_) {
      if (!first) out << ',';
      first = false;
      out << "{\"name\":\"" << util::JsonEscape(name) << "\",\"has_running\":"
          << (session.running.empty() ? "false" : "true")
          << ",\"has_candidate\":"
          << (session.candidate.empty() ? "false" : "true") << '}';
    }
    out << "]}\n";
    return JsonOk(out.str());
  }

  // /sessions/<name>[/<verb>]
  std::string rest = request.path.substr(std::string("/sessions/").size());
  std::string verb;
  if (const std::size_t slash = rest.find('/');
      slash != std::string::npos) {
    verb = rest.substr(slash + 1);
    rest = rest.substr(0, slash);
  }
  const std::string& name = rest;
  if (!ValidSessionName(name)) {
    return Fail(400, "invalid session name");
  }

  if (verb == "running" || verb == "candidate") {
    if (request.method != "PUT") return JsonError(405, "use PUT");
    if (request.body.empty()) {
      return Fail(400, "request body must be the raw config text");
    }
    const std::string vendor = request.QueryParam("vendor", "auto");
    if (!ValidVendor(vendor)) {
      return Fail(400, kVendorError);
    }
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    Session& session = sessions_[name];
    if (verb == "running") {
      session.running = request.body;
      session.running_vendor = vendor;
    } else {
      session.candidate = request.body;
      session.candidate_vendor = vendor;
    }
    return JsonOk("{\"session\":\"" + util::JsonEscape(name) +
                  "\",\"slot\":\"" + verb + "\",\"bytes\":" +
                  std::to_string(request.body.size()) + "}\n");
  }

  if (verb == "diff") {
    if (request.method != "GET") return JsonError(405, "use GET");
    Session session;
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      auto it = sessions_.find(name);
      if (it == sessions_.end()) {
        return Fail(404, "no session named '" + name + "'");
      }
      if (it->second.running.empty()) {
        return Fail(409, "session '" + name + "' has no running config");
      }
      if (it->second.candidate.empty()) {
        return Fail(409, "session '" + name + "' has no candidate config");
      }
      session = it->second;
    }
    const std::string format = request.QueryParam("format", "text");
    const std::string checks = request.QueryParam("checks");
    core::DiffOptions diff_options = options_.diff;
    bool json_format = false;
    if (auto error = ParseDiffKnobs({}, &format,
                                    checks.empty() ? nullptr : &checks,
                                    &diff_options, &json_format)) {
      return *error;
    }
    BumpCounter("server.diff_requests");
    return RunDiff({.endpoint = request.path,
                    .text1 = session.running,
                    .vendor1 = session.running_vendor,
                    .text2 = session.candidate,
                    .vendor2 = session.candidate_vendor,
                    .options = diff_options,
                    .json_format = json_format,
                    .want_obs = request.QueryParam("obs") == "1"});
  }

  if (verb == "commit" || verb == "rollback") {
    if (request.method != "POST") return JsonError(405, "use POST");
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(name);
    if (it == sessions_.end()) {
      return Fail(404, "no session named '" + name + "'");
    }
    if (it->second.candidate.empty()) {
      return Fail(409, "session '" + name + "' has no candidate config");
    }
    if (verb == "commit") {
      it->second.running = std::move(it->second.candidate);
      it->second.running_vendor = it->second.candidate_vendor;
    }
    it->second.candidate.clear();
    it->second.candidate_vendor = "auto";
    return JsonOk("{\"session\":\"" + util::JsonEscape(name) + "\",\"" +
                  verb + "\":true}\n");
  }

  if (verb.empty()) {
    if (request.method == "DELETE") {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      if (sessions_.erase(name) == 0) {
        return Fail(404, "no session named '" + name + "'");
      }
      return JsonOk("{\"deleted\":\"" + util::JsonEscape(name) + "\"}\n");
    }
    if (request.method == "GET") {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      auto it = sessions_.find(name);
      if (it == sessions_.end()) {
        return Fail(404, "no session named '" + name + "'");
      }
      return JsonOk("{\"name\":\"" + util::JsonEscape(name) +
                    "\",\"has_running\":" +
                    (it->second.running.empty() ? "false" : "true") +
                    ",\"has_candidate\":" +
                    (it->second.candidate.empty() ? "false" : "true") +
                    "}\n");
    }
    return JsonError(405, "use GET or DELETE");
  }

  return Fail(404, "unknown session operation '" + verb + "'");
}

}  // namespace campion::server
