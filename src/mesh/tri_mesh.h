// Triangular mesh container shared by IDLZ (which produces meshes), the FEM
// substrate (which analyzes them), and OSPL (which plots fields over them).
//
// Node indices are 0-based inside the library; the card readers/writers
// translate to the 1-based numbering of the original FORTRAN decks.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "geom/polygon.h"
#include "geom/vec2.h"

namespace feio::mesh {

class Topology;

// Matches the N(I) flag of an OSPL nodal card:
//   0 - node interior to the plotted area,
//   1 - boundary node belonging to more than one element,
//   2 - boundary node belonging to exactly one element.
enum class BoundaryKind : std::uint8_t {
  kInterior = 0,
  kBoundaryShared = 1,
  kBoundarySingle = 2,
};

struct Node {
  geom::Vec2 pos;
  BoundaryKind boundary = BoundaryKind::kInterior;
};

struct Element {
  std::array<int, 3> n{-1, -1, -1};

  bool operator==(const Element&) const = default;
};

class TriMesh {
 public:
  TriMesh() = default;

  int add_node(geom::Vec2 pos,
               BoundaryKind boundary = BoundaryKind::kInterior);
  int add_element(int a, int b, int c);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_elements() const { return static_cast<int>(elements_.size()); }

  const Node& node(int i) const { return nodes_[static_cast<size_t>(i)]; }
  Node& node(int i) { return nodes_[static_cast<size_t>(i)]; }
  const Element& element(int e) const { return elements_[static_cast<size_t>(e)]; }
  Element& element(int e) { return elements_[static_cast<size_t>(e)]; }

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Element>& elements() const { return elements_; }

  geom::Vec2 pos(int i) const { return nodes_[static_cast<size_t>(i)].pos; }
  void set_pos(int i, geom::Vec2 p) { nodes_[static_cast<size_t>(i)].pos = p; }

  // Corner positions of element e in stored order.
  std::array<geom::Vec2, 3> corners(int e) const;

  // Signed area of element e; positive when the node order is CCW.
  double signed_area(int e) const;

  // Reorders every element's nodes so its signed area is positive, keeping
  // `topo`, this mesh's topology when given, in step: swapping corners 1 and
  // 2 swaps the element's edges 0 and 2. Returns the number of elements
  // that were flipped.
  int orient_ccw(Topology* topo = nullptr);

  // Sets every node's BoundaryKind from `topo`, the topology of this mesh:
  // a node is a boundary node iff it lies on an edge used by exactly one
  // element, and it is kBoundarySingle iff it additionally belongs to
  // exactly one element.
  void classify_boundary(const Topology& topo);

  geom::BBox bounds() const;

  // Applies a node permutation: new_index = perm[old_index]. Node storage is
  // reordered and element connectivity rewritten. perm must be a bijection
  // on [0, num_nodes).
  void renumber_nodes(const std::vector<int>& perm);

 private:
  std::vector<Node> nodes_;
  std::vector<Element> elements_;
};

}  // namespace feio::mesh
