// Isogram extraction: the core of OSPL.
//
// "Taking one element at a time": for each contour level passing through a
// triangle, the two pairs of adjacent corners whose values bound the level
// are found, the end points are located by linear interpolation along those
// edges, and a straight line is drawn between them (paper, Figure 12).
#pragma once

#include <vector>

#include "geom/vec2.h"
#include "mesh/topology.h"
#include "mesh/tri_mesh.h"

namespace feio::ospl {

struct ContourSegment {
  geom::Vec2 a;
  geom::Vec2 b;
  double level = 0.0;
  int element = -1;
  // Mesh edges the end points were interpolated on; used by label placement
  // to detect intersections with the plot boundary.
  mesh::Edge edge_a;
  mesh::Edge edge_b;
};

// Segments of one level crossing one element. Values are nodal; the field
// is linear within the element, so there is at most one segment. The
// half-open crossing rule (value < level on one side, >= on the other)
// keeps the crossing count consistent when a contour passes exactly through
// a corner.
void element_contour(const mesh::TriMesh& mesh,
                     const std::vector<double>& values, int element,
                     double level, std::vector<ContourSegment>& out);

// All segments for all levels over the whole mesh, element-major (matching
// the paper's "steps 2-4 repeated for each element"): one serial sweep in
// ascending element order, levels in their given order within an element.
std::vector<ContourSegment> extract_contours(
    const mesh::TriMesh& mesh, const std::vector<double>& values,
    const std::vector<double>& levels);

// Clips a segment to an axis-aligned window (Liang–Barsky); returns false
// when entirely outside. End-point edges are preserved only when the end
// point survives unclipped.
bool clip_segment(const geom::BBox& window, ContourSegment& seg);

}  // namespace feio::ospl
