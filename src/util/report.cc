#include "util/report.h"

namespace feio {
namespace {

// Value of the first `"key": "value"` member found at any depth; empty when
// absent. Good enough for the envelope members, which every renderer emits
// first and exactly once.
std::string find_string_member(std::string_view json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  size_t at = json.find(needle);
  if (at == std::string_view::npos) return {};
  at += needle.size();
  while (at < json.size() && (json[at] == ' ' || json[at] == '\t')) ++at;
  if (at >= json.size() || json[at] != '"') return {};
  ++at;
  const size_t end = json.find('"', at);
  if (end == std::string_view::npos) return {};
  return std::string(json.substr(at, end - at));
}

}  // namespace

std::string report_header_json(std::string_view kind) {
  std::string out;
  out += "  \"schema\": \"" + std::string(kReportSchema) + "\",\n";
  out += "  \"kind\": \"" + std::string(kind) + "\",\n";
  out += "  \"tool_version\": \"" + std::string(kToolVersion) + "\",\n";
  out += "  \"generated_by\": \"feio\",\n";
  return out;
}

ReportInfo classify_report(std::string_view json) {
  ReportInfo info;
  info.schema = find_string_member(json, "schema");
  if (info.schema == kReportSchema) {
    info.kind = find_string_member(json, "kind");
    return info;
  }
  info.legacy = true;
  if (info.schema.empty() &&
      json.find("\"diagnostics\":") != std::string_view::npos) {
    // Pre-envelope DiagSink document; `feio lint --json` used the identical
    // shape, so both map to diag.
    info.kind = "diag";
  }
  return info;
}

}  // namespace feio
