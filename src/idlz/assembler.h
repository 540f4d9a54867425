// Assembles an IDLZ subdivision list into the global integer grid:
// numbers the nodes and creates the triangular elements.
//
// Nodes are identified by their integer grid point, so adjacent subdivisions
// that meet along a common run of grid points automatically share nodes —
// this is how the FORTRAN original (array NUMBER(41,61)) made assemblages
// conforming; here the grid points are sorted instead, so a sparse grid box
// needs no dense array. Numbering is done subdivision by subdivision, within
// each subdivision left-to-right and bottom-to-top, exactly the "arbitrary
// scheme with programming convenience the prime consideration" the paper
// describes; the optional bandwidth renumbering (renumber.h) replaces it.
#pragma once

#include <vector>

#include "idlz/subdivision.h"
#include "mesh/topology.h"
#include "mesh/tri_mesh.h"

namespace feio::idlz {

// Numerical restrictions of Table 2 (IDLZ) — configurable so modern callers
// can exceed the 1970 core sizes while tests can still enforce them.
struct Limits {
  int max_subdivisions = 50;
  int max_elements = 850;
  int max_nodes = 500;
  int max_k = 40;  // maximum horizontal integer coordinate
  int max_l = 60;  // maximum vertical integer coordinate
  double max_arc_subtended_deg = 90.0;

  // The historical defaults from Table 2 of the paper.
  static Limits paper() { return Limits{}; }
  // Effectively unbounded, for capacity benchmarks.
  static Limits unlimited();
};

struct Assembly {
  // Grid point of each node.
  std::vector<GridPoint> grid_of;
  // Mesh whose node positions are the raw integer coordinates (the
  // "initial representation" the user drew); shaping moves them later.
  mesh::TriMesh mesh;
  // Topology of `mesh`, the one its boundary flags came from. Shaping keeps
  // it in step with the mesh, and reform takes it from there.
  mesh::Topology topology;
  // node ids belonging to each subdivision, in its grid_points() order:
  // strip by strip (for the per-subdivision plots of Figure 11c and for
  // shaping, which index it by strip and node).
  std::vector<std::vector<int>> subdivision_nodes;
  // element ids created by each subdivision.
  std::vector<std::vector<int>> subdivision_elements;
};

// How ties are broken when both chains can advance (the square cells of a
// rectangle): kUniform draws every diagonal the same way (the "/" pattern
// of the paper's Figure 2); kAlternating flips direction cell by cell
// (the union-jack pattern), which distributes the diagonal's directional
// bias: on Figure 9 it leaves 16 needles for reform instead of 30
// (ReformTest.Figure9HatchReformKeepsMeshValid).
enum class DiagonalStyle {
  kUniform,
  kAlternating,
};

// Numbers nodes and creates elements for the assemblage. Validates every
// subdivision and enforces `limits`. Throws feio::Error on violations.
Assembly assemble(const std::vector<Subdivision>& subdivisions,
                  const Limits& limits = Limits::paper(),
                  DiagonalStyle diagonals = DiagonalStyle::kUniform);

// Triangulates the strip between two node chains laid left-to-right along
// the cross axis. `bottom` and `top` are node ids; `pos` gives each chain
// node's cross-axis coordinate. Appends (a, b, c) triples to `mesh`.
// Exposed for unit testing of the fan/alternation pattern.
void triangulate_strip(const std::vector<int>& bottom,
                       const std::vector<double>& bottom_pos,
                       const std::vector<int>& top,
                       const std::vector<double>& top_pos,
                       mesh::TriMesh& mesh, std::vector<int>* new_elements,
                       DiagonalStyle diagonals = DiagonalStyle::kUniform);

}  // namespace feio::idlz
