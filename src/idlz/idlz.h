// IDLZ: the end-to-end idealization pipeline.
//
//   read data -> assign nodal numbers -> create elements
//   [-> plot before shaping] -> shape (locate nodes) -> reform elements
//   [-> renumber for narrow bandwidth] -> print/punch [-> plot after]
//
// mirroring the flow diagram of the paper's Appendix E. One IdlzCase is one
// "data set" of the deck; run() executes the full pipeline for it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "feio/run_options.h"
#include "idlz/assembler.h"
#include "idlz/reform.h"
#include "idlz/renumber.h"
#include "idlz/shaping.h"
#include "idlz/stats.h"
#include "plot/plot_file.h"
#include "util/diag.h"

namespace feio::idlz {

struct IdlzOptions {
  bool make_plots = false;      // NOPLOT = 1
  bool renumber_nodes = false;  // NONUMB = 1
  bool punch_output = false;    // NOPNCH = 1
  // How square cells are split (see DiagonalStyle); kUniform matches the
  // paper's plots.
  DiagonalStyle diagonals = DiagonalStyle::kUniform;
  Limits limits = Limits::paper();
  std::string nodal_format = "(2F9.5,51X,I3,5X,I3)";
  std::string element_format = "(3I5,62X,I3)";
  // 1-based deck card numbers of the two type-7 FORMAT cards (0 when the
  // case was built programmatically); lint and punch diagnostics point here.
  int nodal_format_card = 0;
  int element_format_card = 0;
};

// One data set: a titled assemblage plus its shaping cards.
struct IdlzCase {
  std::string title;
  IdlzOptions options;
  std::vector<Subdivision> subdivisions;
  std::vector<ShapingSpec> shaping;
  // Name of the deck this case was read from ("<deck>" default label, a file
  // path, or empty for programmatic cases); used to label diagnostics.
  std::string deck_name;
};

struct IdlzResult {
  std::string title;

  // The final idealization (shaped, reformed, optionally renumbered).
  mesh::TriMesh mesh;
  // Integer-grid representation (the "initial representation by user" of
  // the figures).
  mesh::TriMesh initial;
  // Shaped but not yet reformed (Figures 9b / 10a).
  mesh::TriMesh before_reform;

  // Node and element ids (into `mesh`) per subdivision, valid after
  // renumbering.
  std::vector<std::vector<int>> subdivision_nodes;
  std::vector<std::vector<int>> subdivision_elements;

  ShapingReport shaping;
  ReformReport reform;
  RenumberReport renumbering;
  DataVolume volume;

  // Optional plots (options.make_plots): [0] initial representation,
  // [1] final idealization, [2..] one per subdivision with node numbers —
  // the three plot kinds of Figure 11.
  std::vector<plot::PlotFile> plots;

  // Punched card images (options.punch_output), else empty.
  std::string nodal_cards;
  std::string element_cards;
};

// Runs the IDLZ pipeline on one case under the given options (trace/metrics
// sinks, cancel token, ordering — see feio/run_options.h). Throws
// feio::Error on invalid input.
IdlzResult run(const IdlzCase& c, const RunOptions& opts = {});

// Diagnosing variant: a pipeline failure becomes an E-IDLZ-006 record in
// `sink` (nullopt returned) instead of a throw, and mesh-validation
// findings on a successful run are merged into the same sink — so deck,
// geometry and quality problems all land in one report.
std::optional<IdlzResult> run_checked(const IdlzCase& c, DiagSink& sink,
                                      const RunOptions& opts = {});

// Human-readable run summary (node/element counts, bandwidth before/after,
// data-volume ratio) — the "printed listing" portion of IDLZ output.
std::string summarize(const IdlzResult& r);

}  // namespace feio::idlz
