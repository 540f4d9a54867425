// Coefficient-matrix bandwidth measures.
//
// The paper offers optional node renumbering because "the size of the
// coefficient matrix bandwidth ... is directly related to the numbering
// scheme". These helpers compute the quantities that scheme minimizes.
#pragma once

#include <vector>

#include "mesh/tri_mesh.h"

namespace feio::mesh {

// Maximum |i - j| over all element node pairs (the semi-bandwidth of the
// stiffness matrix in node terms, excluding the diagonal). Zero for meshes
// without elements.
int bandwidth(const TriMesh& mesh);

// lowest[i]: the smallest node index coupled to node i by an element (i
// itself when nothing lower couples in) — the first column of row i of the
// envelope in node terms.
std::vector<int> lowest_neighbors(const TriMesh& mesh);

// Sum over rows of the column height `i - lowest(i) + 1` — the diagonal is
// included, so this is the exact entry count of a skyline/envelope factor
// in node terms (the storage the fem solve allocates, times 2x2 dof
// blocks).
long profile(const TriMesh& mesh);

}  // namespace feio::mesh
