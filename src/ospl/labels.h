// Contour labelling.
//
// "The value of each contour is printed next to its intersection with the
// boundary of the plot unless adjacent labels overlap. All contours of zero
// value are labeled. Since adjacent contours are either one interval apart
// or of equal value, these labels sufficiently specify the value at any
// point inside the boundary."
#pragma once

#include <span>
#include <string>
#include <vector>

#include "geom/polygon.h"
#include "mesh/topology.h"
#include "ospl/contour.h"

namespace feio::ospl {

struct ContourLabel {
  geom::Vec2 at;
  double level = 0.0;
  std::string text;
};

struct LabelOptions {
  // Minimum separation between accepted labels, as a fraction of the plot
  // bounding-box diagonal; candidates closer than this to an accepted label
  // are suppressed ("unless adjacent labels overlap").
  double min_separation_frac = 0.05;
  // Decimal places in the printed value; values are prefixed with '+'/'-'
  // like the paper's plots ("+22500.", "-.50").
  int decimals = 0;
  // When true (default), ospl::run overrides `decimals` with the smallest
  // count that prints the contour interval exactly — the paper's plots use
  // "+12500." for a 2500 interval but "-.50" for a 0.10 interval.
  bool auto_decimals = true;
};

// Smallest decimal count that renders `delta` exactly (capped at 6):
// 2500 -> 0, 0.5 -> 1, 0.25 -> 2, 0.1 -> 1.
int decimals_for_interval(double delta);

struct LabelResult {
  std::vector<ContourLabel> accepted;
  int suppressed = 0;
};

// Formats a level the way the paper's plots print them: sign prefix, fixed
// decimals, trailing '.' when decimals == 0 (e.g. "+12500.").
std::string format_level(double level, int decimals);

// Places labels at contour/boundary intersections. `boundary_edges` holds
// the mesh boundary edges sorted (as Topology lists them); a segment end
// point lying on one of them is a boundary intersection. Zero-level labels
// are always accepted.
LabelResult place_labels(const std::vector<ContourSegment>& segments,
                         std::span<const mesh::Edge> boundary_edges,
                         const geom::BBox& plot_bounds,
                         const LabelOptions& opts = {});

}  // namespace feio::ospl
