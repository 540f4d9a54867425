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

// Smallest decimal count that renders `delta` exactly (capped at 6):
// 2500 -> 0, 0.5 -> 1, 0.25 -> 2, 0.1 -> 1. ospl::run labels with this
// count: the paper's plots print "+12500." for a 2500 interval but "-.50"
// for a 0.10 interval.
int decimals_for_interval(double delta);

struct LabelResult {
  std::vector<ContourLabel> accepted;
  int suppressed = 0;
};

// Formats a level the way the paper's plots print them: sign prefix, fixed
// decimals, trailing '.' when decimals == 0 (e.g. "+12500.").
std::string format_level(double level, int decimals);

// Places labels at contour/boundary intersections, each value printed by
// format_level with `decimals` places. `boundary_edges` holds the mesh
// boundary edges sorted (as Topology lists them); a segment end point lying
// on one of them is a boundary intersection. A candidate closer than 0.05
// of the plot bounds' diagonal to an accepted label is suppressed ("unless
// adjacent labels overlap"); zero-level labels are always accepted.
LabelResult place_labels(const std::vector<ContourSegment>& segments,
                         std::span<const mesh::Edge> boundary_edges,
                         const geom::BBox& plot_bounds, int decimals);

}  // namespace feio::ospl
