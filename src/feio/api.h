// The feio pipeline façade (PR 4 api_redesign).
//
// Three PRs of accretion left the entry points inconsistent: run_checked
// took no options, threading was plumbed ad hoc through the CLI, and diag,
// lint and bench each invented a JSON envelope. This header is the single
// surface a tool needs:
//
//   feio::RunOptions opts;            // tracer, metrics, cancel, toggles
//   opts.tracer = &tracer;
//   auto r = feio::run_idlz(c, sink, opts);
//
// plus the feio.report/1 envelope helpers (util/report.h) and the
// observability sinks (util/trace.h, util/metrics.h). The two-argument
// run_checked overloads in idlz/idlz.h and ospl/ospl.h remain as
// deprecated forwarding shims for one release (see feio/run_options.h).
#pragma once

#include <optional>

#include "feio/run_options.h"   // IWYU pragma: export
#include "idlz/idlz.h"          // IWYU pragma: export
#include "ospl/ospl.h"          // IWYU pragma: export
#include "util/metrics.h"       // IWYU pragma: export
#include "util/report.h"        // IWYU pragma: export
#include "util/trace.h"         // IWYU pragma: export

namespace feio {

// Façade spellings of the diagnosing pipelines: identical to the
// three-argument idlz::run_checked / ospl::run_checked, re-exported under
// one name pair so embedders depend on a single header.
std::optional<idlz::IdlzResult> run_idlz(const idlz::IdlzCase& c,
                                         DiagSink& sink,
                                         const RunOptions& opts = {});

std::optional<ospl::OsplResult> run_ospl(const ospl::OsplCase& c,
                                         DiagSink& sink,
                                         const RunOptions& opts = {});

}  // namespace feio
