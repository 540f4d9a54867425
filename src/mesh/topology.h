// Derived mesh connectivity, stored flat: the mesh's edges as sorted
// (min, max) node keys, the elements of each edge, each element's three
// edge ids, and compressed-row node->node and node->element lists. Queried
// by reform, renumbering, boundary classification, validation, the mesh
// plots and OSPL's boundary. A build is one bucket pass over the elements
// with no per-edge allocation, yet most of what those stages cost, so each
// mesh state is built once and handed to every stage that reads it; the
// `mesh.topology_builds` counter counts the builds.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "mesh/tri_mesh.h"

namespace feio::mesh {

// Undirected edge with a < b.
struct Edge {
  int a = -1;
  int b = -1;

  Edge() = default;
  Edge(int x, int y) : a(x < y ? x : y), b(x < y ? y : x) {}

  auto operator<=>(const Edge&) const = default;
};

// Compressed rows: row i is items[offsets[i], offsets[i + 1]).
struct Csr {
  std::vector<int> offsets{0};
  std::vector<int> items;

  int rows() const { return static_cast<int>(offsets.size()) - 1; }
  std::span<const int> row(int i) const {
    const auto r = static_cast<size_t>(i);
    return {items.data() + offsets[r], items.data() + offsets[r + 1]};
  }
};

class Topology {
 public:
  Topology() = default;  // of the empty mesh
  explicit Topology(const TriMesh& mesh);

  int num_nodes() const { return neighbors_.rows(); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  // Every edge of the mesh, sorted by (a, b); an edge id indexes this list.
  std::span<const Edge> edges() const { return edges_; }

  // Elements using edge `id`, ascending: one on the boundary, two inside
  // the mesh, more at a non-manifold edge.
  std::span<const int> edge_elements(int id) const {
    return edge_elements_.row(id);
  }
  bool is_boundary(int id) const { return edge_elements(id).size() == 1; }

  // Id of `e`, or -1 when it is not an edge of the mesh.
  int find_edge(Edge e) const;
  // Elements using `e`; empty when it is not an edge of the mesh.
  std::span<const int> edge_elements(Edge e) const;

  // Ids of element `el`'s edges; edge k joins its corners k and k + 1.
  const std::array<int, 3>& element_edges(int el) const {
    return element_edges_[static_cast<size_t>(el)];
  }

  // Nodes sharing an edge with `n`, ascending.
  std::span<const int> neighbors(int n) const { return neighbors_.row(n); }
  // The node->node lists as one compressed-row array.
  const Csr& adjacency() const { return neighbors_; }

  // Elements incident to node `n`, ascending.
  std::span<const int> elements_of(int n) const {
    return node_elements_.row(n);
  }

  // Edges used by exactly one element (the mesh boundary), sorted.
  std::span<const Edge> boundary_edges() const { return boundary_edges_; }
  // Edges shared by exactly two elements, sorted.
  std::vector<Edge> interior_edges() const;

  // The N(I) flag of node `n`: boundary iff it lies on a boundary edge,
  // kBoundarySingle iff it then belongs to exactly one element.
  BoundaryKind boundary_kind(int n) const {
    return kinds_[static_cast<size_t>(n)];
  }

  // Boundary edges linked into closed loops; each loop is a list of node
  // indices in traversal order (first node not repeated at the end). Open
  // chains (non-manifold input) are returned as-is.
  std::vector<std::vector<int>> boundary_loops() const;

 private:
  friend class TriMesh;  // orient_ccw keeps element_edges_ in step

  std::vector<Edge> edges_;
  Csr edge_elements_;
  std::vector<std::array<int, 3>> element_edges_;
  Csr neighbors_;
  Csr node_elements_;
  std::vector<Edge> boundary_edges_;
  std::vector<BoundaryKind> kinds_;
};

}  // namespace feio::mesh
