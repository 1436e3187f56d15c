#pragma once

// Unified configuration loading: detects the vendor format (Cisco IOS's
// line-oriented directives vs JunOS's brace hierarchy) and dispatches to
// the right parser. This is the entry point the CLI and examples use.

#include <string>
#include <vector>

#include "ir/config.h"

namespace campion::frontend {

struct LoadResult {
  ir::RouterConfig config;
  std::vector<std::string> diagnostics;
};

// Guesses the vendor from configuration text. JunOS configurations are
// brace-structured ("policy-options {", "system {"); IOS configurations
// are flat directives ("router bgp", "ip route"). kUnknown when neither
// signal is present.
ir::Vendor DetectVendor(const std::string& text);

// The vendor a --vendor flag or request field names: "cisco" or "juniper";
// anything else ("auto") is kUnknown, which LoadConfig detects.
ir::Vendor ParseVendor(const std::string& name);

// Parses `text` as the given vendor; kUnknown means detect first.
// Throws std::runtime_error if detection fails.
LoadResult LoadConfig(const std::string& text, const std::string& filename,
                      ir::Vendor vendor = ir::Vendor::kUnknown);

// Reads and parses a file. Throws std::runtime_error on I/O errors or
// failed detection.
LoadResult LoadConfigFile(const std::string& path,
                          ir::Vendor vendor = ir::Vendor::kUnknown);

}  // namespace campion::frontend
