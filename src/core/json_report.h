#pragma once

// JSON serialization of Campion's difference reports, for integration into
// operator tooling and CI pipelines (the cloud provider in §5.1 ran
// Campion inside their own change workflow; a machine-readable report is
// what that requires).

#include <string>

#include "core/config_diff.h"

namespace campion::core {

// Renders a full report as a JSON object:
// {
//   "router1": "...", "router2": "...",
//   "equivalent": bool,
//   "differences": [ {
//       "kind": "route-map" | "acl" | "structural" | "unmatched" | "warning",
//       "title": "...",
//       "included_prefixes": ["10.9.0.0/16 : 16-32", ...],
//       "excluded_prefixes": [...],
//       "example": "...",            (optional)
//       "action1": "...", "action2": "...",
//       "text1": "...", "text2": "..."
//   }, ... ]
// }
std::string ReportToJson(const DiffReport& report,
                         const std::string& router1,
                         const std::string& router2);

// Renders an already-formatted report body as a JSON fragment for
// embedding in composite responses (the daemon's obs envelope and per-pair
// /batch items): the object verbatim when the body is ReportToJson output,
// otherwise a JSON string literal of the text rendering.
std::string ReportJsonFragment(const std::string& rendered, bool is_json);

}  // namespace campion::core
