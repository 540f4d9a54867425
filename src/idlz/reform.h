// Element reform: removing needle-like corners after shaping.
//
// The paper (Figures 9 and 10) notes that the convenient arbitrary element
// creation "often produces elements having shapes quite different from the
// most desirable equilateral shape", so IDLZ reforms elements where
// necessary after shaping. The reform is realized as local diagonal swaps:
// for each interior edge whose two triangles form a convex quadrilateral,
// the diagonal is flipped whenever that raises the smaller of the six
// interior angles. Iterated to a fixed point this is Lawson's min-angle
// flip, whose result is the locally optimal triangulation of the shaped
// node set.
//
// Each edge's test takes the quad's six edge vectors once and compares the
// largest corner cosine of each triangulation, from sqrt(x*x + y*y)
// lengths with bounds widened for their rounding. Only when the two lie
// within a rounding margin of the tolerance does it recompute the cosines
// from hypot lengths, and then, if they still do, take the min of acos
// over them, so every decision is the one the min-angle formula makes
// (docs/ALGORITHMS.md).
#pragma once

#include <vector>

#include "mesh/topology.h"
#include "mesh/tri_mesh.h"

namespace feio::idlz {

struct ReformReport {
  int flips = 0;
  int passes = 0;
  std::vector<int> pass_flips;  // flips of each pass, in order
  int edges = 0;        // interior edges tested, summed over passes (after
                        // the first, only those next to the last flips)
  int exact_edges = 0;  // of those, edges the acos form decided
  bool converged = true;
};

// Reforms elements in place, flipping when the min angle improves by more
// than 1e-9 rad, for at most 50 passes. Element count and node positions
// are unchanged; only connectivity is rewritten. Requires CCW orientation
// (call mesh.orient_ccw() first; assemble()/shape() already do). `topo` is
// the topology of `mesh` on entry, and of the reformed mesh on return; the
// first pass uses it, and each later pass rebuilds it once.
ReformReport reform(mesh::TriMesh& mesh, mesh::Topology& topo);

// Whether flipping the shared edge of elements e1, e2 would improve the
// local min angle; exposed for tests.
bool flip_improves(const mesh::TriMesh& mesh, int e1, int e2, double tol);

}  // namespace feio::idlz
