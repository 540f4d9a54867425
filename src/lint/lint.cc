// Whole-case and whole-deck lint drivers.
#include "lint/lint.h"

#include <sstream>
#include <string>

#include "idlz/deck.h"
#include "ospl/deck.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace feio::lint {
namespace {

// One span + finding counter per rule-family execution, so a trace shows
// where a lint run spent its effort and `lint.findings` totals what the
// rules (as opposed to the parsers) reported.
class RuleFamilyScope {
 public:
  RuleFamilyScope(const char* name, const DiagSink& sink)
      : span_(name), sink_(sink), before_(count(sink)) {}
  ~RuleFamilyScope() {
    const int found = count(sink_) - before_;
    span_.arg("findings", found);
    FEIO_METRIC_ADD("lint.findings", found);
    FEIO_METRIC_ADD("lint.rule_family_runs", 1);
  }

 private:
  static int count(const DiagSink& s) {
    return s.error_count() + s.warning_count();
  }

  util::TraceSpan span_;
  const DiagSink& sink_;
  int before_;
};

}  // namespace

void lint_case(const idlz::IdlzCase& c, DiagSink& sink) {
  FEIO_TRACE_SPAN(span, "lint.case");
  span.arg("title", c.title);
  FEIO_METRIC_ADD("lint.cases_linted", 1);
  {
    RuleFamilyScope scope("lint.rules.subdivisions", sink);
    lint_subdivisions(c.subdivisions, c.deck_name, sink);
  }
  {
    RuleFamilyScope scope("lint.rules.shaping", sink);
    lint_shaping(c, sink);
  }

  std::optional<idlz::IdlzResult> result;
  {
    // Dry run to obtain the idealization for the mesh/width rules, with
    // plots and punching off (both are irrelevant here). The arc
    // restriction is relaxed so an L-SUB-005 deck still produces a mesh to
    // lint — L-SUB-005 itself was already reported statically above.
    FEIO_TRACE_SCOPE("lint.pipeline_dry_run");
    idlz::IdlzCase dry = c;
    dry.options.limits.max_arc_subtended_deg = 180.0;
    dry.options.make_plots = false;
    dry.options.punch_output = false;
    try {
      result = idlz::run(dry);
    } catch (const Error& e) {
      sink.error("E-IDLZ-006",
                 "pipeline failed for data set '" + c.title +
                     "': " + e.what(),
                 {c.deck_name, 0, 0, 0});
    } catch (const std::exception& e) {
      sink.error("E-IDLZ-007",
                 "internal failure for data set '" + c.title +
                     "': " + e.what(),
                 {c.deck_name, 0, 0, 0});
    }
  }
  const mesh::TriMesh* final_mesh = result ? &result->mesh : nullptr;

  if (final_mesh) {
    RuleFamilyScope scope("lint.rules.mesh", sink);
    lint_mesh(*final_mesh, c, sink);
  }
  {
    RuleFamilyScope scope("lint.rules.formats", sink);
    lint_formats(c, final_mesh, sink);
  }
}

void lint_idlz_deck(std::istream& in, DiagSink& sink,
                    const std::string& deck_name) {
  const std::vector<idlz::IdlzCase> cases =
      idlz::read_deck(in, sink, deck_name);
  for (const idlz::IdlzCase& c : cases) {
    if (sink.capped()) break;
    lint_case(c, sink);
  }
}

void lint_idlz_string(const std::string& deck, DiagSink& sink,
                      const std::string& deck_name) {
  std::istringstream in(deck);
  lint_idlz_deck(in, sink, deck_name);
}

void lint_ospl_deck(std::istream& in, DiagSink& sink,
                    const std::string& deck_name) {
  const ospl::OsplCase c = ospl::read_deck(in, sink, deck_name);
  if (c.mesh.num_nodes() > 0 && !sink.capped()) {
    lint_ospl_case(c, sink);
  }
}

void lint_ospl_string(const std::string& deck, DiagSink& sink,
                      const std::string& deck_name) {
  std::istringstream in(deck);
  lint_ospl_deck(in, sink, deck_name);
}

int exit_code(const DiagSink& sink) {
  if (sink.error_count() > 0) return 2;
  if (sink.warning_count() > 0) return 1;
  return 0;
}

}  // namespace feio::lint
