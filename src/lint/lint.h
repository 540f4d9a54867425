// feio lint: rule-based static analysis for card decks, punch FORMATs, and
// the meshes they produce.
//
// The paper's premise is catching analyst input errors *before* the
// expensive finite element run. The structured-diagnostics layer (PR 1)
// reports decks that are malformed; this subsystem flags decks that parse
// fine but are semantically wrong or wasteful: punch FORMATs whose integer
// fields overflow at the mesh's node count, overlapping subdivisions, arcs
// subtending more than 90 degrees, needle elements, bandwidth-pessimal
// numbering, contour intervals wider than the value range.
//
// Findings are Diag records (stable L-* codes from lint/rule.h) collected
// into the same DiagSink the parsers use, so one `feio lint` run renders
// parse errors and lint findings in a single report — as text, JSON, or
// SARIF (lint/sarif.h) for CI annotation.
#pragma once

#include <istream>
#include <string>
#include <vector>

#include "idlz/idlz.h"
#include "mesh/tri_mesh.h"
#include "ospl/ospl.h"
#include "util/diag.h"

namespace feio::lint {

// --- Rule families (exposed for tests and for embedding) -----------------

// L-SUB-001..004: grid bounds, overlap, disconnection, duplicate ids.
void lint_subdivisions(const std::vector<idlz::Subdivision>& subdivisions,
                       const std::string& deck_name, DiagSink& sink);

// L-SUB-005/006: shaping arcs subtending > 90 degrees / impossible radii.
void lint_shaping(const idlz::IdlzCase& c, DiagSink& sink);

// L-FMT-001..005 on both type-7 FORMAT cards. `final_mesh` (may be null)
// supplies the actual node/element counts and coordinate range for the
// width rules; without it only the structural rules run.
void lint_formats(const idlz::IdlzCase& c, const mesh::TriMesh* final_mesh,
                  DiagSink& sink);

// L-MESH-001..005 on the idealization `c` produced.
void lint_mesh(const mesh::TriMesh& mesh, const idlz::IdlzCase& c,
               DiagSink& sink);

// L-OSPL-001..005 on an iso-plot case.
void lint_ospl_case(const ospl::OsplCase& c, DiagSink& sink);

// All IDLZ rule families for one data set, including the pipeline dry run
// (failures recorded as E-IDLZ-006/007, as in `feio check`).
void lint_case(const idlz::IdlzCase& c, DiagSink& sink);

// --- Whole-deck drivers ---------------------------------------------------

// Parses with the recovering reader (parse diagnostics land in `sink`) and
// lints every data set.
void lint_idlz_deck(std::istream& in, DiagSink& sink,
                    const std::string& deck_name = "<deck>");
void lint_idlz_string(const std::string& deck, DiagSink& sink,
                      const std::string& deck_name = "<deck>");

void lint_ospl_deck(std::istream& in, DiagSink& sink,
                    const std::string& deck_name = "<deck>");
void lint_ospl_string(const std::string& deck, DiagSink& sink,
                      const std::string& deck_name = "<deck>");

// The `feio lint` exit-code contract: 2 when the sink holds errors, 1 when
// it holds warnings only, 0 when clean (notes do not affect the code).
int exit_code(const DiagSink& sink);

}  // namespace feio::lint
