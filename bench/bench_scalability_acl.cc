// Regenerates the §5.4 scalability experiment: SemanticDiff on randomly
// generated near-equivalent ACL pairs with 10 injected differences, at
// increasing rule counts. The paper (2.2 GHz CPU): 1000 rules -> under a
// second; 10,000 rules -> ~15 s, with Batfish's parse time (13 s)
// comparable to the diff time. We print the measured diff and parse times
// for the same sweep (absolute numbers differ with hardware; the shape —
// superlinear-but-tractable growth, parse comparable to diff — is the
// reproduced result), recorded as `v{4,6}_diff_seconds_<rules>` and
// `v{4,6}_parse_seconds_<rules>`.

#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cisco/cisco_parser.h"
#include "cisco/cisco_unparser.h"
#include "core/semantic_diff.h"
#include "gen/acl_gen.h"
#include "juniper/juniper_parser.h"
#include "juniper/juniper_unparser.h"
#include "util/text_table.h"

namespace {

double DiffSeconds(const campion::ir::Acl& acl1,
                   const campion::ir::Acl& acl2, std::size_t* diffs_found) {
  auto start = std::chrono::steady_clock::now();
  campion::bdd::BddManager mgr;
  campion::encode::PacketLayout layout(mgr, acl1.family);
  auto diffs = campion::core::SemanticDiffAcls(layout, acl1, acl2);
  auto stop = std::chrono::steady_clock::now();
  *diffs_found = diffs.size();
  return std::chrono::duration<double>(stop - start).count();
}

// Parse time: unparse both ACLs to native configs, then re-parse — the
// analogue of the paper's Batfish parse-time comparison.
double ParseSeconds(const campion::gen::GeneratedAclPair& pair) {
  auto cisco_config = campion::gen::WrapAclInConfig(
      pair.acl1, "gw-c", campion::ir::Vendor::kCisco);
  auto juniper_config = campion::gen::WrapAclInConfig(
      pair.acl2, "gw-j", campion::ir::Vendor::kJuniper);
  std::string cisco_text = campion::cisco::UnparseCiscoConfig(cisco_config);
  std::string juniper_text =
      campion::juniper::UnparseJuniperConfig(juniper_config);
  auto start = std::chrono::steady_clock::now();
  auto parsed_cisco = campion::cisco::ParseCiscoConfig(cisco_text);
  auto parsed_juniper = campion::juniper::ParseJuniperConfig(juniper_text);
  auto stop = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(parsed_cisco);
  benchmark::DoNotOptimize(parsed_juniper);
  return std::chrono::duration<double>(stop - start).count();
}

// Runs the sweep for one family, recording `<tag>_diff_seconds_<rules>` and
// `<tag>_parse_seconds_<rules>`, and returns the rendered table.
std::string Sweep(campion::util::AddressFamily family,
                  const std::vector<int>& rule_counts) {
  const bool v4 = family == campion::util::AddressFamily::kIpv4;
  const std::string tag = v4 ? "v4" : "v6";
  campion::util::TextTable table({v4 ? "Rules" : "Rules (IPv6)",
                                  "Injected diffs", "Found diffs",
                                  "SemanticDiff (s)", "Parse both (s)"});
  auto& metrics = campion::benchutil::BenchMetrics::Instance();
  for (int rules : rule_counts) {
    campion::gen::AclGenOptions options;
    options.rules = rules;
    options.differences = 10;
    options.seed = 42;
    options.family = family;
    campion::gen::GeneratedAclPair pair = campion::gen::GenerateAclPair(options);

    std::size_t found = 0;
    double diff_seconds = DiffSeconds(pair.acl1, pair.acl2, &found);
    double parse_seconds = ParseSeconds(pair);
    metrics.Record(tag + "_diff_seconds_" + std::to_string(rules),
                   diff_seconds);
    metrics.Record(tag + "_parse_seconds_" + std::to_string(rules),
                   parse_seconds);

    char diff_buffer[32];
    char parse_buffer[32];
    snprintf(diff_buffer, sizeof(diff_buffer), "%.3f", diff_seconds);
    snprintf(parse_buffer, sizeof(parse_buffer), "%.3f", parse_seconds);
    table.AddRow({std::to_string(rules), "10", std::to_string(found),
                  diff_buffer, parse_buffer});
  }
  return table.Render();
}

void PrintSweep() {
  std::cout << Sweep(campion::util::AddressFamily::kIpv4,
                     {100, 500, 1000, 5000, 10000});
  std::cout << "\nPaper (2.2 GHz): 1000 rules < 1 s; 10,000 rules ~15 s; "
               "Batfish parse ~13 s for the 10,000 case.\n";

  // The same sweep on IPv6 ACLs: the symbolic address fields widen from 32
  // to 128 bits (the paper's experiment is v4-only; this quantifies the
  // width-parametric encoding's cost on the same rule counts).
  std::cout << "\n"
            << Sweep(campion::util::AddressFamily::kIpv6,
                     {100, 500, 1000, 5000});
}

void BM_SemanticDiffAcl(benchmark::State& state) {
  campion::gen::AclGenOptions options;
  options.rules = static_cast<int>(state.range(0));
  options.differences = 10;
  options.seed = 42;
  campion::gen::GeneratedAclPair pair = campion::gen::GenerateAclPair(options);
  for (auto _ : state) {
    campion::bdd::BddManager mgr;
    campion::encode::PacketLayout layout(mgr);
    auto diffs =
        campion::core::SemanticDiffAcls(layout, pair.acl1, pair.acl2);
    benchmark::DoNotOptimize(diffs);
  }
}
BENCHMARK(BM_SemanticDiffAcl)
    ->Arg(100)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_SemanticDiffAclV6(benchmark::State& state) {
  campion::gen::AclGenOptions options;
  options.rules = static_cast<int>(state.range(0));
  options.differences = 10;
  options.seed = 42;
  options.family = campion::util::AddressFamily::kIpv6;
  campion::gen::GeneratedAclPair pair = campion::gen::GenerateAclPair(options);
  for (auto _ : state) {
    campion::bdd::BddManager mgr;
    campion::encode::PacketLayout layout(mgr,
                                         campion::util::AddressFamily::kIpv6);
    auto diffs =
        campion::core::SemanticDiffAcls(layout, pair.acl1, pair.acl2);
    benchmark::DoNotOptimize(diffs);
  }
}
BENCHMARK(BM_SemanticDiffAclV6)
    ->Arg(100)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return campion::benchutil::RunBench(
      argc, argv, "S5.4 scalability: SemanticDiff on generated ACLs",
      PrintSweep);
}
