#include "frontend/loader.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cisco/cisco_parser.h"
#include "juniper/juniper_parser.h"
#include "obs/mem_metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace campion::frontend {
namespace {

bool ContainsToken(const std::string& text, const std::string& token) {
  return text.find(token) != std::string::npos;
}

std::size_t CountLines(const std::string& text) {
  std::size_t newlines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  // A final line without a trailing newline still counts.
  return newlines + (!text.empty() && text.back() != '\n' ? 1 : 0);
}

}  // namespace

ir::Vendor ParseVendor(const std::string& name) {
  if (name == "cisco") return ir::Vendor::kCisco;
  if (name == "juniper") return ir::Vendor::kJuniper;
  return ir::Vendor::kUnknown;
}

ir::Vendor DetectVendor(const std::string& text) {
  // JunOS structure markers.
  int juniper_score = 0;
  for (const char* marker :
       {"policy-options", "routing-options", "host-name", "policy-statement",
        "family inet", "prefix-length-range"}) {
    if (ContainsToken(text, marker)) ++juniper_score;
  }
  // Braces with semicolons are a strong JunOS signal.
  if (ContainsToken(text, "{") && ContainsToken(text, ";")) ++juniper_score;

  int cisco_score = 0;
  for (const char* marker :
       {"hostname ", "ip route ", "router bgp", "router ospf",
        "route-map ", "ip prefix-list", "access-list", "ip community-list"}) {
    if (ContainsToken(text, marker)) ++cisco_score;
  }

  if (juniper_score == 0 && cisco_score == 0) return ir::Vendor::kUnknown;
  return juniper_score > cisco_score ? ir::Vendor::kJuniper
                                     : ir::Vendor::kCisco;
}

LoadResult LoadConfig(const std::string& text, const std::string& filename,
                      ir::Vendor vendor) {
  obs::ScopedSpan span("parse", filename);
  if (vendor == ir::Vendor::kUnknown) {
    vendor = DetectVendor(text);
    if (vendor == ir::Vendor::kUnknown) {
      throw std::runtime_error(filename +
                               ": cannot detect configuration format");
    }
  }
  std::size_t lines = CountLines(text);
  span.AddAttr("lines", static_cast<double>(lines));
  span.AddAttr("bytes", static_cast<double>(text.size()));
  obs::Count("parse.files");
  obs::Count("parse.lines", static_cast<double>(lines));
  obs::Count("parse.bytes", static_cast<double>(text.size()));
  LoadResult result;
  if (vendor == ir::Vendor::kCisco) {
    auto parsed = cisco::ParseCiscoConfig(text, filename);
    result.config = std::move(parsed.config);
    result.diagnostics = std::move(parsed.diagnostics);
  } else {
    auto parsed = juniper::ParseJuniperConfig(text, filename);
    result.config = std::move(parsed.config);
    result.diagnostics = std::move(parsed.diagnostics);
  }
  span.AddAttr("diagnostics", static_cast<double>(result.diagnostics.size()));
  obs::RecordSpanMemory(span);
  return result;
}

LoadResult LoadConfigFile(const std::string& path, ir::Vendor vendor) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return LoadConfig(buffer.str(), path, vendor);
}

}  // namespace campion::frontend
