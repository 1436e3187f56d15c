#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <malloc.h>
#endif

#include "calibrate.h"
#include "cisco/cisco_unparser.h"
#include "gen/acl_gen.h"
#include "gen/scenarios.h"
#include "juniper/juniper_unparser.h"
#include "obs/trace.h"
#include "pipeline.h"
#include "server/http.h"
#include "server/service.h"
#include "util/json.h"
#include "util/rss.h"

namespace perfbench {

using namespace campion;

namespace {

// ---------------------------------------------------------------------------
// Fixed sizes. Thread and connection counts are part of the workload
// definition and are reported with every result.
// ---------------------------------------------------------------------------

// Set-up is repeated and its median reported. One-shot workloads: the cold
// pass (each pair's first comparison) as three interleaved sweeps, each
// scaled to a whole pass. serve_fleet: three fresh daemons.
constexpr int kSetupSweeps = 3;
constexpr int kDaemonSetupRepeats = 3;

// university_routemaps: filler sizes putting the JunOS side at ~1,300 to
// ~3,500 lines (the Cisco side is ~500 to ~1,350), one per stratum.
constexpr int kUniversityStrata = 32;
constexpr int kFillerLow = 350;
constexpr int kFillerHigh = 950;

// dualstack_acls: rule counts spread over 1,000-3,000, one per stratum and
// family, 10 injected differences each.
constexpr int kAclStrata = 16;
constexpr int kAclRulesLow = 1000;
constexpr int kAclRulesHigh = 3000;
constexpr int kAclDifferences = 10;

// serve_fleet.
constexpr int kFleetPairs = 32;
constexpr int kFleetRulesLow = 30;
constexpr int kFleetRulesHigh = 100;
constexpr int kRegeneratedPerPush = 2;
constexpr int kReplaysPerRound = 4;
constexpr unsigned kHttpThreads = 2;
constexpr unsigned kDaemonDiffThreads = 2;
constexpr unsigned kClientConnections = 2;
// One edit in three changes a prefix-list entry (template-cache miss); the
// others change a static route (template hit, result miss). A 1:2 mix keeps
// the edit median inside one class instead of on the boundary between two.
constexpr int kEditCycle = 3;
constexpr int kRssRounds = 40;
// Calibration: kernel samples before each daemon set-up and each round, and
// the rounds that share one scale.
constexpr int kSetupCalibrations = 8;
constexpr int kCalibrationsPerRound = 3;
constexpr int kRoundsPerWindow = 8;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return Mix(Mix(seed) ^ Mix(a * 0x100000001B3ull + b));
}

// Uniform in [0, 1), a pure function of (seed, a, b).
double Uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(SubSeed(seed, a, b) >> 11) * 0x1.0p-53;
}

// A draw from stratum `k` of `strata` equal slices of [low, high).
int Stratified(std::uint64_t seed, std::uint64_t stream, int k, int strata,
               int low, int high) {
  const double u = (k + Uniform(seed, stream, static_cast<std::uint64_t>(k))) /
                   strata;
  return low + static_cast<int>(std::floor(u * (high - low)));
}

// Linear-interpolated quantile (the same rule as Python's
// statistics.quantiles(method="inclusive")).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double PeakRssMb() {
  return static_cast<double>(util::SampleProcessMemory().peak_rss_bytes) /
         (1024.0 * 1024.0);
}

double RssMb() {
  return static_cast<double>(util::SampleProcessMemory().rss_bytes) /
         (1024.0 * 1024.0);
}

// Starts a new high-water mark at the current resident set, so that
// peak_rss_mb covers the measured phase only: the set-up, the oracle and the
// expected renders the benchmark computes are freed and handed back to the
// kernel first. Linux resets VmHWM on writing "5" to /proc/self/clear_refs;
// elsewhere this returns false and the peak stays the whole process's.
bool ResetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  return !clear_refs.fail();
}

// Where peak_rss_mb's baseline comes from, for the provenance line: the
// whole process's peak before the first reset, and the resident set the
// measured phase starts from (binary, inputs and expected renders; in
// serve_fleet also the daemon's state).
void RecordRssScope(bool reset, double process_peak, double start,
                    std::map<std::string, std::string>& info) {
  info["peak_rss_scope"] = reset ? "measured phase" : "whole process";
  info["peak_rss_process_mb"] = std::to_string(process_peak);
  info["rss_at_measure_start_mb"] = std::to_string(start);
}

// The calibration behind the reported timings, for the provenance line:
// the median scale (below 1 when the host ran slower than reference speed)
// and the run's throughput and median latency as measured.
void RecordHostSpeed(const std::vector<double>& scales, double raw_pairs_per_s,
                     double raw_pair_p50_s,
                     std::map<std::string, std::string>& info) {
  info["host_speed_scale"] = std::to_string(Quantile(scales, 0.5));
  info["host_speed_windows"] = std::to_string(scales.size());
  info["raw_pairs_per_s"] = std::to_string(raw_pairs_per_s);
  info["raw_pair_p50_s"] = std::to_string(raw_pair_p50_s);
}

void Fail(RunResult& result, const std::string& what) {
  result.correct = false;
  if (result.errors.size() < 20) result.errors.push_back(what);
}

std::string CiscoText(const ir::RouterConfig& config) {
  return cisco::UnparseCiscoConfig(config);
}

std::string JuniperText(const ir::RouterConfig& config) {
  return juniper::UnparseJuniperConfig(config);
}

// Verdict oracle over one comparison; returns false (and records why) when
// the monolithic baseline disagrees with Campion's report.
bool OracleAgrees(const Comparison& comparison, bool flip, RunResult& result) {
  std::vector<std::string> errors;
  result.oracle_pairs_checked +=
      CheckVerdicts(comparison.config1, comparison.config2, comparison.report,
                    flip, &errors);
  for (const auto& e : errors) Fail(result, "oracle: " + e);
  return errors.empty();
}

// ---------------------------------------------------------------------------
// Per-layer metrics from one traced run
// ---------------------------------------------------------------------------

struct ServerFigures {
  double handle_s = 0;
  double transport_s = 0;
  double json_parse_s = 0;
  double template_hit_ratio = 0;
  double result_hit_ratio = 0;
  double template_resident_mb = 0;
  double result_resident_mb = 0;
  double result_evictions = 0;
};

double PerUnit(double total, double units) {
  return units > 0 ? total / units : 0.0;
}

void AddLayerMetrics(const SpanLog& log, const LayerCounts& counts,
                     double config_diff_s, double untraced_pairs_per_s,
                     double traced_pairs_per_s, const ServerFigures& server,
                     RunResult& result) {
  const double pairs = counts.pairs;
  auto per_pair = [&](const char* span) {
    return PerUnit(log.Seconds(span), pairs);
  };
  const double parse = per_pair("frontend.parse");
  const double match = per_pair("match_policies");
  const double build = per_pair("encode.template_build");
  const double sift = per_pair("bdd.sift");
  const double compact = per_pair("encode.template_compact");
  const double seed = per_pair("bdd.seed");
  const double route_map = per_pair("semantic_diff.route_map");
  const double acl_v4 = per_pair("semantic_diff.acl_v4");
  const double acl_v6 = per_pair("semantic_diff.acl_v6");
  const double localize = per_pair("header_localize");
  const double present = per_pair("present");
  const double structural = per_pair("structural");
  const double render = per_pair("render");
  const double fingerprint = per_pair("encode.fingerprint");
  // The layers that partition core::ConfigDiff's work (present.s already
  // holds Present's own re-localization, so header_localize.s is not added
  // again; Compact is the daemon cache's step, not ConfigDiff's).
  const double attributed = match + build + sift + seed + route_map + acl_v4 +
                            acl_v6 + present + structural;

  auto add = [&](const std::string& name, double value, const char* unit) {
    result.metrics.push_back(Metric{name, value, unit});
  };
  add("frontend.parse_s", parse, "s");
  add("frontend.bytes", PerUnit(counts.parsed_bytes, pairs), "B");
  add("match_policies.s", match, "s");
  add("encode.template_build_s", build, "s");
  add("encode.template_nodes", PerUnit(counts.template_nodes, counts.templates),
      "count");
  add("encode.fingerprint_s", fingerprint, "s");
  add("bdd.seed_s", seed, "s");
  add("bdd.seed_bytes", PerUnit(counts.seed_bytes, counts.seeds), "B");
  add("bdd.sift_s", sift, "s");
  add("bdd.unique_lookups", PerUnit(counts.unique_lookups, pairs), "count");
  add("bdd.avg_probe_length",
      PerUnit(counts.unique_probes, counts.unique_lookups), "probe/lookup");
  add("bdd.ite_cache_hit_ratio", PerUnit(counts.cache_hits, counts.cache_lookups),
      "ratio");
  add("bdd.peak_live_nodes", counts.peak_live_nodes, "count");
  add("bdd.mem_peak_bytes", counts.mem_peak_bytes, "B");
  add("semantic_diff.route_map_s", route_map, "s");
  add("semantic_diff.acl_v4_s", acl_v4, "s");
  add("semantic_diff.acl_v6_s", acl_v6, "s");
  add("semantic_diff.differences", PerUnit(counts.differences, pairs), "count");
  add("header_localize.s", localize, "s");
  add("header_localize.calls", PerUnit(counts.localize_calls, pairs), "count");
  add("header_localize.ranges",
      PerUnit(counts.localize_ranges, counts.localize_calls), "count");
  add("header_localize.dag_build_s", per_pair("header_localize.dag_build"), "s");
  add("header_localize.dag_nodes",
      PerUnit(counts.dag_nodes, counts.localize_calls), "count");
  add("present.s", present, "s");
  add("structural.s", structural, "s");
  add("config_diff.s", config_diff_s, "s");
  add("config_diff.unattributed_s", config_diff_s - attributed, "s");
  add("render.s", render, "s");
  add("server.handle_s", server.handle_s, "s");
  add("server.transport_s", server.transport_s, "s");
  add("server.json_parse_s", server.json_parse_s, "s");
  add("template_cache.build_s",
      compact > 0 ? PerUnit(log.Seconds("encode.template_build") +
                                log.Seconds("bdd.sift") +
                                log.Seconds("encode.template_compact"),
                            counts.templates)
                  : 0.0,
      "s");
  add("template_cache.hit_ratio", server.template_hit_ratio, "ratio");
  add("result_cache.hit_ratio", server.result_hit_ratio, "ratio");
  add("template_cache.resident_mb", server.template_resident_mb, "MB");
  add("result_cache.resident_mb", server.result_resident_mb, "MB");
  add("result_cache.evictions", server.result_evictions, "count");
  add("trace.overhead_ratio",
      traced_pairs_per_s > 0 ? untraced_pairs_per_s / traced_pairs_per_s - 1.0
                             : 0.0,
      "ratio");

  // The layer with the largest self time per traced pair.
  const std::vector<std::pair<std::string, double>> layers = {
      {"frontend.parse_s", parse},
      {"encode.fingerprint_s", fingerprint},
      {"match_policies.s", match},
      {"encode.template_build_s", build},
      {"bdd.sift_s", sift},
      {"encode.template_compact", compact},
      {"bdd.seed_s", seed},
      {"semantic_diff.route_map_s", route_map},
      {"semantic_diff.acl_s (v4+v6)", acl_v4 + acl_v6},
      {"header_localize.s", localize},
      {"present.s - header_localize.s", present - localize},
      {"structural.s", structural},
      {"render.s", render},
  };
  const auto top = std::max_element(
      layers.begin(), layers.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  result.info["top_layer"] = top->first;
  result.info["top_layer_share_of_traced_pair"] = std::to_string(
      PerUnit(top->second, PerUnit(log.Seconds("pair"), pairs)));
  result.info["traced_pairs"] = std::to_string(static_cast<long>(pairs));
  result.info["traced_pairs_per_s"] = std::to_string(traced_pairs_per_s);
  result.info["untraced_pairs_per_s"] = std::to_string(untraced_pairs_per_s);
}

void WriteSpans(const RunConfig& config, const SpanLog& log) {
  if (config.spans_out.empty()) return;
  std::ofstream out(config.spans_out);
  out << log.ToJson();
}

// ---------------------------------------------------------------------------
// One-shot workloads: a fixed pass of pairs, compared from text to report
// ---------------------------------------------------------------------------

struct OneShotWorkload {
  std::vector<PairText> pairs;  // One pass.
};

OneShotWorkload UniversityRouteMaps(std::uint64_t seed) {
  OneShotWorkload workload;
  for (int k = 0; k < kUniversityStrata; ++k) {
    const int filler = Stratified(seed, 1, k, kUniversityStrata, kFillerLow,
                                  kFillerHigh);
    gen::UniversityScenario scenario = gen::BuildUniversityScenario(filler);
    const std::string size = std::to_string(filler);
    workload.pairs.push_back({"core/" + size, CiscoText(scenario.core.config1),
                              JuniperText(scenario.core.config2)});
    workload.pairs.push_back({"border/" + size,
                              CiscoText(scenario.border.config1),
                              JuniperText(scenario.border.config2)});
  }
  return workload;
}

PairText AclPair(std::uint64_t generator_seed, int rules,
                 util::AddressFamily family, const std::string& name,
                 const std::string& host, int differences) {
  gen::AclGenOptions options;
  options.rules = rules;
  options.seed = generator_seed;
  options.differences = differences;
  options.family = family;
  options.name = name;
  gen::GeneratedAclPair acls = gen::GenerateAclPair(options);
  return PairText{
      name + "/" + std::to_string(rules),
      CiscoText(gen::WrapAclInConfig(acls.acl1, host + "-c", ir::Vendor::kCisco)),
      JuniperText(
          gen::WrapAclInConfig(acls.acl2, host + "-j", ir::Vendor::kJuniper))};
}

OneShotWorkload DualStackAcls(std::uint64_t seed) {
  OneShotWorkload workload;
  for (int k = 0; k < kAclStrata; ++k) {
    for (int v6 = 0; v6 < 2; ++v6) {
      const int rules = Stratified(seed, 2 + static_cast<std::uint64_t>(v6), k,
                                   kAclStrata, kAclRulesLow, kAclRulesHigh);
      const std::string tag = (v6 ? "EDGE6_" : "EDGE4_") + std::to_string(k);
      workload.pairs.push_back(AclPair(
          SubSeed(seed, 4, static_cast<std::uint64_t>(2 * k + v6)), rules,
          v6 ? util::AddressFamily::kIpv6 : util::AddressFamily::kIpv4, tag,
          "edge" + std::to_string(k), kAclDifferences));
    }
  }
  return workload;
}

core::DiffOptions CliOptions() {
  core::DiffOptions options;  // The CLI's defaults: template on, no sift.
  options.num_threads = 1;
  return options;
}

// The time to compare one full pass of `n` pairs, for every window of `n`
// consecutive comparisons (each window holds every pair exactly once).
std::vector<double> PassTimes(const std::vector<double>& latencies,
                              std::size_t n) {
  std::vector<double> windows;
  double window = 0.0;
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    window += latencies[i];
    if (i >= n) window -= latencies[i - n];
    if (i + 1 >= n) windows.push_back(window);
  }
  return windows;
}

void RunOneShot(const RunConfig& config, const OneShotWorkload& workload,
                RunResult& result) {
  const core::DiffOptions options = CliOptions();
  const std::size_t n = workload.pairs.size();
  result.info["configdiff_threads"] = std::to_string(options.num_threads);
  result.info["pairs_per_pass"] = std::to_string(n);
  result.info["setup_sweeps"] = std::to_string(kSetupSweeps);

  // Set-up: the cold pass, in interleaved sweeps (sweep r compares pairs
  // r, r + kSetupSweeps, ...). Each pair's first report is the reference
  // later comparisons must repeat, and the oracle checks it off the clock.
  std::vector<std::string> reference(n);
  std::vector<bool> oracle_ok(n, true);
  std::vector<double> setups;
  for (std::size_t r = 0; r < static_cast<std::size_t>(kSetupSweeps); ++r) {
    double sweep = 0.0;
    std::size_t compared = 0;
    HostSpeed speed;
    for (std::size_t i = r; i < n; i += kSetupSweeps) {
      speed.Sample();
      const double start = NowSeconds();
      const Comparison c = CompareOnce(workload.pairs[i], options);
      sweep += NowSeconds() - start;
      ++compared;
      reference[i] = c.rendered;
      oracle_ok[i] = OracleAgrees(c, config.flip_oracle && i == 0, result);
    }
    setups.push_back(PerUnit(sweep * static_cast<double>(n),
                             static_cast<double>(compared)) *
                     speed.Scale());
  }
  const double process_peak = PeakRssMb();
  const bool rss_reset = ResetPeakRss();
  RecordRssScope(rss_reset, process_peak, RssMb(), result.info);

  // Untraced passes (the whole budget, or half of it when tracing). Each
  // pass is one calibration window: a kernel sample before every
  // comparison, and the pass's latencies scaled to reference speed. A traced
  // run reports no end-to-end timings, so it skips the kernel and its
  // untraced passes compare like with like against the traced ones.
  std::vector<long> samples(n, 0);
  std::vector<long> mismatches(n, 0);
  std::vector<double> latencies;  // At reference speed.
  std::vector<double> raw_latencies;
  std::vector<double> scales;
  std::vector<double> config_diff;
  const double budget = config.trace ? config.seconds / 2 : config.seconds;
  double measured = 0.0;
  while (measured < budget) {
    HostSpeed speed;
    const std::size_t pass_begin = raw_latencies.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (!config.trace) speed.Sample();
      const double start = NowSeconds();
      const Comparison c = CompareOnce(workload.pairs[i], options);
      const double seconds = NowSeconds() - start;
      raw_latencies.push_back(seconds);
      config_diff.push_back(c.config_diff_s);
      measured += seconds;
      ++samples[i];
      if (c.rendered != reference[i]) {
        ++mismatches[i];
        Fail(result, workload.pairs[i].name + ": report differs between runs");
      }
    }
    scales.push_back(speed.Scale());
    for (std::size_t j = pass_begin; j < raw_latencies.size(); ++j) {
      latencies.push_back(raw_latencies[j] * scales.back());
    }
  }
  const double peak_rss = PeakRssMb();
  const double pairs_per_s = PerUnit(static_cast<double>(latencies.size()),
                                     Sum(latencies));
  const double raw_pairs_per_s = PerUnit(
      static_cast<double>(raw_latencies.size()), Sum(raw_latencies));
  if (!config.trace) {
    RecordHostSpeed(scales, raw_pairs_per_s, Quantile(raw_latencies, 0.5),
                    result.info);
  }

  // Traced passes over the same pairs, checked against the untraced reports.
  long traced_attempted = 0;
  long traced_failed = 0;
  SpanLog log(config.trace);
  LayerCounts counts;
  if (config.trace) {
    DecomposeOptions decompose;
    decompose.diff = options;
    double traced = 0.0;
    while (traced < config.seconds / 2) {
      for (std::size_t i = 0; i < n; ++i) {
        const double start = NowSeconds();
        std::string rendered =
            DecomposedCompare(workload.pairs[i], decompose, log, counts);
        traced += NowSeconds() - start;
        ++traced_attempted;
        if (rendered != reference[i]) {
          ++traced_failed;
          Fail(result, workload.pairs[i].name +
                           ": decomposed report differs from ConfigDiff's");
        }
      }
    }
  }

  // A pair the oracle disagrees with fails every time it is compared.
  for (std::size_t i = 0; i < n; ++i) {
    result.failed += oracle_ok[i] ? mismatches[i] : samples[i] + 1;
  }
  result.attempted = static_cast<long>(n + latencies.size()) + traced_attempted;
  result.failed += traced_failed;
  result.info["pair_samples"] = std::to_string(latencies.size());
  result.info["passes"] = std::to_string(latencies.size() / n);

  if (config.trace) {
    // Tracing overhead compares like with like: the decomposed pairs' time
    // without the HeaderLocalize and PrefixRangeDag calls made only to time
    // them.
    const double traced_pairs_per_s = PerUnit(
        counts.pairs, log.Seconds("pair") - log.Seconds("header_localize") -
                          log.Seconds("header_localize.dag_build"));
    AddLayerMetrics(log, counts,
                    PerUnit(Sum(config_diff),
                            static_cast<double>(config_diff.size())),
                    raw_pairs_per_s, traced_pairs_per_s, ServerFigures{},
                    result);
    WriteSpans(config, log);
    return;
  }
  const double p50 = Quantile(latencies, 0.5);
  const double p90 = Quantile(latencies, 0.9);
  // Without a daemon, a request is one CLI comparison, a push is one pass
  // over the workload's pairs (what `campion --batch` does), and an edit is
  // re-diffed from scratch, so edit-to-report is a pair comparison.
  result.metrics = {
      {"setup_s", Quantile(setups, 0.5), "s"},
      {"pairs_per_s", pairs_per_s, "1/s"},
      {"pair_p50_s", p50, "s"},
      {"pair_p90_s", p90, "s"},
      {"request_p50_s", p50, "s"},
      {"request_p90_s", p90, "s"},
      {"push_p50_s", Quantile(PassTimes(latencies, n), 0.5), "s"},
      {"edit_to_report_p50_s", p50, "s"},
      {"peak_rss_mb", peak_rss, "MB"},
  };
}

// ---------------------------------------------------------------------------
// serve_fleet: an in-process daemon driven closed loop over loopback HTTP
// ---------------------------------------------------------------------------

server::ServiceOptions DaemonOptions() {
  // campion_serve's documented defaults: sift, template cache, result
  // cache, GC, flight recorder. Sift is set here because ServiceOptions
  // (and so the campion_serve binary) leaves reorder off.
  server::ServiceOptions options;
  options.diff.reorder = core::DiffOptions::ReorderMode::kSift;
  options.diff.num_threads = kDaemonDiffThreads;
  return options;
}

class Daemon {
 public:
  Daemon(const server::ServiceOptions& options, SpanLog& log)
      : log_(log),
        service_(options),
        http_(
            "127.0.0.1", 0,
            [this](const server::HttpRequest& request) {
              return Handle(request);
            },
            kHttpThreads) {
    std::string error;
    if (!http_.Start(&error)) {
      throw std::runtime_error("cannot start the daemon: " + error);
    }
  }
  ~Daemon() { http_.Stop(); }

  int port() const { return http_.port(); }
  server::DiffService& service() { return service_; }
  void set_tracing(bool on) { tracing_ = on; }

 private:
  // The benchmark's own handler wrapper: the only place server.handle is
  // timed.
  server::HttpResponse Handle(const server::HttpRequest& request) {
    if (!tracing_) return service_.Handle(request);
    const std::uint64_t start = NowNs();
    server::HttpResponse response = service_.Handle(request);
    log_.Record("server.handle", start, NowNs());
    return response;
  }

  SpanLog& log_;
  std::atomic<bool> tracing_{false};
  server::DiffService service_;
  server::HttpServer http_;
};

enum class RequestKind { kPush, kPut, kSessionDiff, kReplay };

const char* KindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPush:
      return "POST /batch";
    case RequestKind::kPut:
      return "PUT /sessions/core/*";
    case RequestKind::kSessionDiff:
      return "GET /sessions/core/diff";
    case RequestKind::kReplay:
      return "POST /diff";
  }
  return "?";
}

struct RequestRecord {
  RequestKind kind = RequestKind::kReplay;
  int slot = -1;  // Fleet slot for replays.
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int status = 0;
  std::string body;
  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Client {
 public:
  void Connect(int port) {
    port_ = port;
    std::string error;
    if (!conn_.Connect("127.0.0.1", port, &error)) {
      throw std::runtime_error("cannot connect: " + error);
    }
  }
  void Close() { conn_.Close(); }

  RequestRecord Send(RequestKind kind, const std::string& method,
                     const std::string& target, const std::string& body,
                     int slot = -1) {
    RequestRecord record;
    record.kind = kind;
    record.slot = slot;
    server::HttpClientResponse response;
    record.start_ns = NowNs();
    const bool ok = conn_.Roundtrip(method, target, body, &response);
    record.end_ns = NowNs();
    if (ok) {
      record.status = response.status;
      record.body = std::move(response.body);
    } else {
      conn_.Connect("127.0.0.1", port_);  // Status stays 0: a failure.
    }
    return record;
  }

 private:
  server::HttpClientConnection conn_;
  int port_ = 0;
};

struct FleetSlot {
  PairText pair;
  std::string expected;  // Library ConfigDiff render.
  bool oracle_ok = true;
  std::string diff_body;       // POST /diff body.
  std::string batch_fragment;  // This pair's entry in a /batch body.
};

struct SessionState {
  ir::RouterConfig base_candidate;  // University core, JunOS side.
  std::string running_text;         // University core, Cisco side.
  std::string candidate_text;
  std::string expected;
  bool oracle_ok = true;
  bool template_miss = false;  // This edit changes a prefix list.
};

class FleetLoad {
 public:
  FleetLoad(const RunConfig& config, RunResult& result)
      : config_(config), result_(result), log_(config.trace) {
    slots_.resize(kFleetPairs);
    for (int i = 0; i < kFleetPairs; ++i) Regenerate(i, 0);
    const int filler = Stratified(config.seed, 1, kUniversityStrata / 2,
                                  kUniversityStrata, kFillerLow, kFillerHigh);
    gen::UniversityScenario scenario = gen::BuildUniversityScenario(filler);
    session_.base_candidate = std::move(scenario.core.config2);
    session_.running_text = CiscoText(scenario.core.config1);
    Edit(-1);
  }

  void Run() {
    result_.info["daemon_http_threads"] = std::to_string(kHttpThreads);
    result_.info["configdiff_threads"] = std::to_string(kDaemonDiffThreads);
    result_.info["client_connections"] = std::to_string(kClientConnections);
    result_.info["fleet_pairs"] = std::to_string(kFleetPairs);
    result_.info["replays_per_round"] = std::to_string(kReplaysPerRound);
    result_.info["load"] = "closed loop";

    std::vector<double> setups;
    for (int i = 0; i < (config_.trace ? 1 : kDaemonSetupRepeats); ++i) {
      StopDaemon();
      HostSpeed speed;
      for (int j = 0; j < kSetupCalibrations; ++j) speed.Sample();
      const double start = NowSeconds();
      daemon_ = std::make_unique<Daemon>(DaemonOptions(), log_);
      for (Client& client : clients_) client.Connect(daemon_->port());
      std::vector<RequestRecord> records;
      records.push_back(clients_[0].Send(RequestKind::kPush, "POST", "/batch",
                                         BatchBody()));
      records.push_back(clients_[1].Send(RequestKind::kPut, "PUT",
                                         "/sessions/core/running",
                                         session_.running_text));
      records.push_back(clients_[1].Send(RequestKind::kPut, "PUT",
                                         "/sessions/core/candidate",
                                         session_.candidate_text));
      records.push_back(clients_[1].Send(RequestKind::kSessionDiff, "GET",
                                         "/sessions/core/diff", ""));
      setups.push_back((NowSeconds() - start) * speed.Scale());
      Check(records);
    }

    const double budget = config_.trace ? config_.seconds / 2 : config_.seconds;
    const double process_peak = PeakRssMb();
    double measured = 0.0;
    int rounds = 0;
    HostSpeed speed;
    std::vector<double> scales;
    std::size_t window_begin = samples_.size();
    while (measured < budget) {
      if (!config_.trace) {
        for (int j = 0; j < kCalibrationsPerRound; ++j) speed.Sample();
      }
      // The caches grow with every round, so memory is compared at equal
      // work: the peak over the first kRssRounds rounds.
      measured += Round(/*traced=*/false, /*sample_rss=*/rounds < kRssRounds);
      ++rounds;
      if (rounds % kRoundsPerWindow == 0 || measured >= budget) {
        scales.push_back(speed.Scale());
        speed.Clear();
        for (std::size_t r = window_begin; r < samples_.size(); ++r) {
          samples_[r].ScaleBy(scales.back());
        }
        window_begin = samples_.size();
      }
    }
    const double raw_pairs_per_s = PerUnit(rounds * PairsPerRound(), measured);
    result_.info["rounds"] = std::to_string(rounds);
    result_.info["peak_rss_rounds"] =
        std::to_string(std::min(rounds, kRssRounds));
    RecordRssScope(rss_reset_, process_peak, rss_start_mb_, result_.info);

    if (config_.trace) {
      RunTraced(raw_pairs_per_s);
      StopDaemon();
      return;
    }
    StopDaemon();
    std::vector<double> requests;
    std::vector<double> pairs;
    std::vector<double> pushes;
    std::vector<double> edits;
    double scaled_measured = 0.0;
    for (const RoundSamples& round : samples_) {
      scaled_measured += round.wall;
      requests.insert(requests.end(), round.requests.begin(),
                      round.requests.end());
      pairs.insert(pairs.end(), round.pairs.begin(), round.pairs.end());
      pushes.push_back(round.push);
      edits.push_back(round.edit);
    }
    const double pairs_per_s =
        PerUnit(rounds * PairsPerRound(), scaled_measured);
    std::vector<double> raw_pairs;
    for (const RoundSamples& round : samples_) {
      for (double seconds : round.pairs) {
        raw_pairs.push_back(seconds / round.scale);
      }
    }
    RecordHostSpeed(scales, raw_pairs_per_s, Quantile(raw_pairs, 0.5),
                    result_.info);
    result_.info["request_samples"] = std::to_string(requests.size());
    result_.info["pair_samples"] = std::to_string(pairs.size());
    result_.info["push_samples"] = std::to_string(pushes.size());
    result_.info["edit_samples"] = std::to_string(edits.size());
    result_.metrics = {
        {"setup_s", Quantile(setups, 0.5), "s"},
        {"pairs_per_s", pairs_per_s, "1/s"},
        {"pair_p50_s", Quantile(pairs, 0.5), "s"},
        {"pair_p90_s", Quantile(pairs, 0.9), "s"},
        {"request_p50_s", Quantile(requests, 0.5), "s"},
        {"request_p90_s", Quantile(requests, 0.9), "s"},
        {"push_p50_s", Quantile(pushes, 0.5), "s"},
        {"edit_to_report_p50_s", Quantile(edits, 0.5), "s"},
        {"peak_rss_mb", peak_rss_, "MB"},
    };
  }

 private:
  struct RoundSamples {
    std::vector<double> requests;  // Every HTTP request.
    std::vector<double> pairs;     // Single-pair requests.
    double push = 0;
    double edit = 0;  // PUT candidate + GET diff.
    double wall = 0;  // The round.
    double scale = 1;

    // To reference speed, once the round's calibration window is closed.
    void ScaleBy(double factor) {
      for (double& s : requests) s *= factor;
      for (double& s : pairs) s *= factor;
      push *= factor;
      edit *= factor;
      wall *= factor;
      scale = factor;
    }
  };

  static double PairsPerRound() {
    return kFleetPairs + 1 + kReplaysPerRound;
  }

  // A fresh IPv4 pair for fleet slot `slot`: 30-100 rules, one slot in
  // four equivalent. (IPv6 pairs are dualstack_acls' subject.)
  void Regenerate(int slot, int version) {
    const int rules = Stratified(config_.seed, 5, slot, kFleetPairs,
                                 kFleetRulesLow, kFleetRulesHigh);
    const std::string name = "FLEET_" + std::to_string(slot);
    FleetSlot& s = slots_[static_cast<std::size_t>(slot)];
    s.pair = AclPair(SubSeed(config_.seed, 6 + static_cast<std::uint64_t>(slot),
                             static_cast<std::uint64_t>(version)),
                     rules, util::AddressFamily::kIpv4, name,
                     "fleet" + std::to_string(slot), slot % 4);
    Comparison c = Expect(s.pair);
    s.expected = c.rendered;
    s.oracle_ok = OracleAgrees(c, config_.flip_oracle && first_oracle_, result_);
    first_oracle_ = false;
    s.diff_body = "{\"config1\":\"" + util::JsonEscape(s.pair.text1) +
                  "\",\"config2\":\"" + util::JsonEscape(s.pair.text2) +
                  "\"}";
    s.batch_fragment = "{\"name\":\"" + name + "\",\"config1\":\"" +
                       util::JsonEscape(s.pair.text1) + "\",\"config2\":\"" +
                       util::JsonEscape(s.pair.text2) + "\"}";
  }

  // The session candidate for edit `edit` (-1 = the unedited pair).
  void Edit(int edit) {
    ir::RouterConfig candidate = session_.base_candidate;
    session_.template_miss = edit >= 0 && edit % kEditCycle == 0;
    if (edit >= 0) {
      const auto a = static_cast<std::uint8_t>((edit >> 8) & 0xFF);
      const auto b = static_cast<std::uint8_t>(edit & 0xFF);
      if (session_.template_miss) {
        for (auto& [name, list] : candidate.prefix_lists) {
          if (list.family != util::AddressFamily::kIpv4) continue;
          ir::PrefixListEntry entry;
          entry.range = util::PrefixRange(
              util::Prefix(util::Ipv4Address(10, 200, a, b), 32));
          list.entries.push_back(entry);
          break;
        }
      } else {
        ir::StaticRoute route;
        route.prefix = util::Prefix(util::Ipv4Address(10, 201, a, b), 32);
        route.next_hop = util::Ipv4Address(192, 0, 2, 1);
        candidate.static_routes.push_back(route);
      }
    }
    session_.candidate_text = JuniperText(candidate);
    Comparison c = Expect(
        PairText{"session", session_.running_text, session_.candidate_text});
    session_.expected = c.rendered;
    session_.oracle_ok = OracleAgrees(c, false, result_);
  }

  // The library render the daemon's response must equal, byte for byte.
  Comparison Expect(const PairText& pair) {
    Comparison c = CompareOnce(pair, CliOptions());
    obs::ResetThreadTrace();  // The daemon keeps tracing enabled.
    return c;
  }

  std::string BatchBody() const {
    std::string body = "{\"pairs\":[";
    for (int i = 0; i < kFleetPairs; ++i) {
      if (i > 0) body += ',';
      body += slots_[static_cast<std::size_t>(i)].batch_fragment;
    }
    return body + "]}";
  }

  // One closed-loop round: client 0 pushes the fleet with a few pairs
  // regenerated while client 1 edits the session, fetches its diff and
  // replays unchanged pairs. Returns the round's wall time. With
  // `sample_rss`, the round's high-water RSS starts after its inputs,
  // expected renders and oracle verdicts are made, and counts toward
  // peak_rss_mb.
  double Round(bool traced, bool sample_rss) {
    const int round = rounds_++;
    std::vector<int> regenerated;
    for (int j = 0; j < kRegeneratedPerPush; ++j) {
      const int slot = (round * kRegeneratedPerPush + j) % kFleetPairs;
      Regenerate(slot, round + 1);
      regenerated.push_back(slot);
    }
    Edit(round);
    const std::string batch = BatchBody();
    std::vector<int> replay_slots;
    for (int j = 0; j < kReplaysPerRound; ++j) {
      replay_slots.push_back((round * kRegeneratedPerPush +
                              kRegeneratedPerPush + j) %
                             kFleetPairs);
    }

    if (sample_rss) {
      rss_reset_ = ResetPeakRss() && rss_reset_;
      if (rss_start_mb_ == 0.0) rss_start_mb_ = RssMb();
    }

    std::vector<RequestRecord> push_records;
    std::vector<RequestRecord> session_records;
    const double start = NowSeconds();
    std::thread session_client([&] {
      session_records.push_back(clients_[1].Send(RequestKind::kPut, "PUT",
                                                 "/sessions/core/candidate",
                                                 session_.candidate_text));
      session_records.push_back(clients_[1].Send(
          RequestKind::kSessionDiff, "GET", "/sessions/core/diff", ""));
      for (int slot : replay_slots) {
        session_records.push_back(clients_[1].Send(
            RequestKind::kReplay, "POST", "/diff",
            slots_[static_cast<std::size_t>(slot)].diff_body, slot));
      }
    });
    push_records.push_back(
        clients_[0].Send(RequestKind::kPush, "POST", "/batch", batch));
    session_client.join();
    const double seconds = NowSeconds() - start;
    if (sample_rss) peak_rss_ = std::max(peak_rss_, PeakRssMb());

    std::vector<RequestRecord> records = std::move(push_records);
    records.insert(records.end(),
                   std::make_move_iterator(session_records.begin()),
                   std::make_move_iterator(session_records.end()));
    RoundSamples round_samples;
    round_samples.wall = seconds;
    for (const RequestRecord& r : records) {
      round_samples.requests.push_back(r.seconds());
      if (r.kind == RequestKind::kPush) round_samples.push = r.seconds();
      if (r.kind == RequestKind::kPut) round_samples.edit += r.seconds();
      if (r.kind == RequestKind::kSessionDiff) {
        round_samples.edit += r.seconds();
        round_samples.pairs.push_back(r.seconds());
      }
      if (r.kind == RequestKind::kReplay) {
        round_samples.pairs.push_back(r.seconds());
      }
      if (traced) log_.Record("client.request", r.start_ns, r.end_ns);
    }
    if (!traced) samples_.push_back(std::move(round_samples));
    Check(records);

    // Off the clock: the JSON reader on the bodies this round sent, and the
    // round's template-cache misses driven layer by layer, for at most half
    // the run's measured time, so a traced run stays bounded.
    if (traced && decompose_seconds_ < config_.seconds / 2) {
      const double decompose_start = NowSeconds();
      auto time_parse = [&](const std::string& body) {
        util::JsonValue value;
        const std::uint64_t t0 = NowNs();
        util::ParseJson(body, value);
        log_.Record("server.json_parse", t0, NowNs());
      };
      time_parse(batch);
      for (int slot : replay_slots) {
        time_parse(slots_[static_cast<std::size_t>(slot)].diff_body);
      }
      for (int slot : regenerated) {
        const FleetSlot& s = slots_[static_cast<std::size_t>(slot)];
        Decompose(s.pair, s.expected);
      }
      if (session_.template_miss) {
        Decompose(PairText{"session", session_.running_text,
                           session_.candidate_text},
                  session_.expected);
      }
      decompose_seconds_ += NowSeconds() - decompose_start;
    }
    return seconds;
  }

  void Decompose(const PairText& pair, const std::string& expected) {
    DecomposeOptions decompose;
    decompose.diff = DaemonOptions().diff;
    decompose.daemon_template = true;
    std::string rendered = DecomposedCompare(pair, decompose, log_, counts_);
    ++result_.attempted;
    if (rendered != expected) {
      ++result_.failed;
      Fail(result_, pair.name + ": decomposed report differs from ConfigDiff's");
    }
    // ConfigDiff alone, untraced, with the daemon's options.
    core::DiffOptions options = decompose.diff;
    options.num_threads = 1;
    config_diff_.push_back(CompareOnce(pair, options).config_diff_s);
    obs::ResetThreadTrace();
  }

  // Every response against the library render (the CLI-parity invariant)
  // and every pair against the verdict oracle.
  void Check(const std::vector<RequestRecord>& records) {
    for (const RequestRecord& r : records) {
      ++result_.attempted;
      bool ok = r.status >= 200 && r.status < 300;
      if (ok && r.kind == RequestKind::kPush) ok = CheckBatch(r.body);
      if (ok && r.kind == RequestKind::kSessionDiff) {
        ok = r.body == session_.expected && session_.oracle_ok;
      }
      if (ok && r.kind == RequestKind::kReplay) {
        const FleetSlot& s = slots_[static_cast<std::size_t>(r.slot)];
        ok = r.body == s.expected && s.oracle_ok;
      }
      if (!ok) {
        ++result_.failed;
        Fail(result_, std::string(KindName(r.kind)) + " failed (status " +
                          std::to_string(r.status) + ")");
      }
    }
  }

  bool CheckBatch(const std::string& body) {
    util::JsonValue value;
    if (!util::ParseJson(body, value) || !value.IsObject()) return false;
    const util::JsonValue* pairs = value.Find("pairs");
    if (pairs == nullptr || !pairs->IsArray() ||
        pairs->array.size() != static_cast<std::size_t>(kFleetPairs)) {
      return false;
    }
    for (int i = 0; i < kFleetPairs; ++i) {
      const FleetSlot& s = slots_[static_cast<std::size_t>(i)];
      const util::JsonValue* report =
          pairs->array[static_cast<std::size_t>(i)].Find("report");
      if (report == nullptr || !report->IsString() ||
          report->string != s.expected || !s.oracle_ok) {
        return false;
      }
    }
    return true;
  }

  void RunTraced(double untraced_pairs_per_s) {
    daemon_->set_tracing(true);
    double measured = 0.0;
    int rounds = 0;
    for (; measured < config_.seconds / 2; ++rounds) {
      measured += Round(/*traced=*/true, /*sample_rss=*/false);
    }
    daemon_->set_tracing(false);
    const double traced_pairs_per_s = PerUnit(rounds * PairsPerRound(), measured);

    ServerFigures server;
    const double requests =
        static_cast<double>(log_.Count("client.request"));
    server.handle_s = PerUnit(log_.Seconds("server.handle"), requests);
    server.transport_s = PerUnit(
        log_.Seconds("client.request") - log_.Seconds("server.handle"),
        requests);
    server.json_parse_s =
        PerUnit(log_.Seconds("server.json_parse"),
                static_cast<double>(log_.Count("server.json_parse")));
    const server::TemplateCache::Stats tc = daemon_->service().CacheStats();
    const server::ResultCache::Stats rc =
        daemon_->service().ResultCacheStats();
    server.template_hit_ratio = PerUnit(static_cast<double>(tc.hits),
                                        static_cast<double>(tc.hits + tc.misses));
    server.result_hit_ratio = PerUnit(static_cast<double>(rc.hits),
                                      static_cast<double>(rc.hits + rc.misses));
    server.template_resident_mb =
        static_cast<double>(tc.resident_bytes) / (1024.0 * 1024.0);
    server.result_resident_mb =
        static_cast<double>(rc.resident_bytes) / (1024.0 * 1024.0);
    server.result_evictions = static_cast<double>(rc.evictions);
    AddLayerMetrics(log_, counts_,
                    PerUnit(Sum(config_diff_),
                            static_cast<double>(config_diff_.size())),
                    untraced_pairs_per_s, traced_pairs_per_s, server,
                    result_);
    WriteSpans(config_, log_);
  }

  void StopDaemon() {
    // Close the client side first, so the server's drain does not wait on
    // idle keep-alive connections.
    for (Client& client : clients_) client.Close();
    daemon_.reset();
  }

  const RunConfig& config_;
  RunResult& result_;
  SpanLog log_;
  LayerCounts counts_;
  std::vector<FleetSlot> slots_;
  SessionState session_;
  std::unique_ptr<Daemon> daemon_;
  Client clients_[kClientConnections];
  std::vector<RoundSamples> samples_;
  std::vector<double> config_diff_;
  double decompose_seconds_ = 0.0;
  double peak_rss_ = 0.0;
  double rss_start_mb_ = 0.0;
  bool rss_reset_ = true;
  int rounds_ = 0;
  bool first_oracle_ = true;
};

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "university_routemaps" || name == "dualstack_acls" ||
         name == "serve_fleet";
}

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  result.info["workload"] = config.workload;
  result.info["seed"] = std::to_string(config.seed);
  result.info["traced"] = config.trace ? "true" : "false";
  if (config.workload == "university_routemaps") {
    RunOneShot(config, UniversityRouteMaps(config.seed), result);
  } else if (config.workload == "dualstack_acls") {
    RunOneShot(config, DualStackAcls(config.seed), result);
  } else {
    FleetLoad(config, result).Run();
  }
  if (result.failed > 0) result.correct = false;
  result.info["oracle_pairs_checked"] =
      std::to_string(result.oracle_pairs_checked);
  result.info["failed_ratio"] = std::to_string(
      PerUnit(static_cast<double>(result.failed),
              static_cast<double>(result.attempted)));
  return result;
}

}  // namespace perfbench
