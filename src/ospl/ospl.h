// OSPL: the end-to-end "iso-plot" pipeline.
//
// Input: a triangular mesh, one scalar value per node (stress, strain,
// temperature, ...), plot titles, an optional zoom window and an optional
// contour interval (0 => the automatic rule of Appendix D). Output: the
// contour segments, boundary polylines, placed labels, and a PlotFile
// carrying the complete drawing.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "feio/run_options.h"
#include "geom/polygon.h"
#include "mesh/tri_mesh.h"
#include "ospl/contour.h"
#include "ospl/interval.h"
#include "ospl/labels.h"
#include "plot/plot_file.h"
#include "util/diag.h"

namespace feio::ospl {

// Numerical restrictions of Table 1 (OSPL), configurable like idlz::Limits.
struct OsplLimits {
  int max_elements = 1000;
  int max_nodes = 800;

  static OsplLimits paper() { return OsplLimits{}; }
  static OsplLimits unlimited();
};

struct OsplCase {
  mesh::TriMesh mesh;
  std::vector<double> values;  // S(I), one per node
  std::string title1;
  std::string title2;
  // Zoom window (XMN..XMX, YMN..YMX). Invalid (default) => whole mesh.
  geom::BBox window;
  // Contour interval DELTA; 0 => determined automatically (Appendix D).
  double delta = 0.0;
  LabelOptions label_options;
  OsplLimits limits = OsplLimits::paper();
  // Provenance when read from a deck (empty/0 for programmatic cases): deck
  // label and 1-based number of the type-1 header card that carried DELTA
  // and the window — lint diagnostics point here.
  std::string deck_name;
  int header_card = 0;
};

struct OsplResult {
  double delta = 0.0;   // interval actually used
  double lowest = 0.0;  // value of the first contour
  double vmin = 0.0;
  double vmax = 0.0;
  std::vector<double> levels;
  std::vector<ContourSegment> segments;  // clipped to the window
  LabelResult labels;
  // Boundary polyline segments (adjacent boundary nodes connected by
  // straight lines), clipped to the window.
  std::vector<ContourSegment> boundary;
  plot::PlotFile plot;
};

// Runs the full pipeline under the given options (trace/metrics sinks,
// cancel token — see feio/run_options.h). Throws feio::Error on size
// violations or malformed input (value count mismatch, empty mesh).
OsplResult run(const OsplCase& c, const RunOptions& opts = {});

// Diagnosing variant: the input mesh is validated first (findings merged
// into `sink`; errors suppress the run), and a pipeline failure becomes an
// E-OSPL-005 record instead of a throw. Returns nullopt when the case did
// not run.
std::optional<OsplResult> run_checked(const OsplCase& c, DiagSink& sink,
                                      const RunOptions& opts = {});

// Report line matching the plots' footer, e.g.
// "CONTOUR INTERVAL IS 2500." — used in plot subtitles.
std::string interval_caption(double delta);

}  // namespace feio::ospl
