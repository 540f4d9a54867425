// The feio.report/1 envelope: one versioned top-level shape shared by every
// machine-readable document feio emits (--diag-json, `feio check --json`,
// `feio lint --json`, BENCH_solver.json, BENCH_serve.json, --metrics-json).
//
// Every document is a JSON object whose first four members are
//   "schema":       "feio.report/1"
//   "kind":         "diag" | "lint" | "bench" | "metrics" | "job"
//   "tool_version": the feio release that wrote it
//   "generated_by": "feio"
// followed by kind-specific fields (the pre-envelope payloads, unchanged,
// so pre-existing consumers keep finding their keys). classify_report()
// recognizes both the new envelope and the three legacy envelopes it
// replaced; the legacy shapes are read-only compatibility for one release
// (see docs/DIAGNOSTICS.md).
#pragma once

#include <string>
#include <string_view>

namespace feio {

// The feio release; bumped per PR-sized change set.
inline constexpr std::string_view kToolVersion = "0.5.0";

// The envelope's schema id.
inline constexpr std::string_view kReportSchema = "feio.report/1";

// The four shared member lines (two-space indent, trailing comma and
// newline) — renderers emit them immediately after their opening "{".
std::string report_header_json(std::string_view kind);

struct ReportInfo {
  std::string schema;  // "feio.report/1", a legacy id, or "" (pre-envelope)
  std::string kind;    // normalized: diag|lint|bench|metrics|"" if unknown
  bool legacy = false;
};

// Identifies a report document by its top-level "schema"/"kind" members.
// Recognizes the feio.report/1 envelope and the legacy shapes:
//   - pre-PR4 DiagSink JSON (no "schema"; has "diagnostics") => kind diag
//   - "feio.bench.pipeline/1"                                => kind bench
// A key-scan, not a full parse: callers wanting validation parse the
// document separately.
ReportInfo classify_report(std::string_view json);

}  // namespace feio
