#include "mesh/tri_mesh.h"

#include <utility>

#include "mesh/topology.h"
#include "util/error.h"

namespace feio::mesh {

int TriMesh::add_node(geom::Vec2 pos, BoundaryKind boundary) {
  nodes_.push_back(Node{pos, boundary});
  return static_cast<int>(nodes_.size()) - 1;
}

int TriMesh::add_element(int a, int b, int c) {
  FEIO_ASSERT(a >= 0 && a < num_nodes());
  FEIO_ASSERT(b >= 0 && b < num_nodes());
  FEIO_ASSERT(c >= 0 && c < num_nodes());
  FEIO_REQUIRE(a != b && b != c && a != c,
               "element has repeated node indices");
  elements_.push_back(Element{{a, b, c}});
  return static_cast<int>(elements_.size()) - 1;
}

std::array<geom::Vec2, 3> TriMesh::corners(int e) const {
  const Element& el = element(e);
  return {pos(el.n[0]), pos(el.n[1]), pos(el.n[2])};
}

double TriMesh::signed_area(int e) const {
  const auto c = corners(e);
  return geom::signed_area2(c[0], c[1], c[2]) / 2.0;
}

int TriMesh::orient_ccw(Topology* topo) {
  FEIO_ASSERT(topo == nullptr ||
              topo->element_edges_.size() == elements_.size());
  int flipped = 0;
  for (int e = 0; e < num_elements(); ++e) {
    if (signed_area(e) < 0.0) {
      std::swap(element(e).n[1], element(e).n[2]);
      if (topo != nullptr) {
        auto& ids = topo->element_edges_[static_cast<size_t>(e)];
        std::swap(ids[0], ids[2]);
      }
      ++flipped;
    }
  }
  return flipped;
}

void TriMesh::classify_boundary(const Topology& topo) {
  FEIO_ASSERT(topo.num_nodes() == num_nodes());
  for (int i = 0; i < num_nodes(); ++i) {
    nodes_[static_cast<size_t>(i)].boundary = topo.boundary_kind(i);
  }
}

geom::BBox TriMesh::bounds() const {
  geom::BBox box;
  for (const Node& n : nodes_) box.expand(n.pos);
  return box;
}

void TriMesh::renumber_nodes(const std::vector<int>& perm) {
  FEIO_REQUIRE(static_cast<int>(perm.size()) == num_nodes(),
               "permutation size does not match node count");
  std::vector<Node> new_nodes(nodes_.size());
  std::vector<bool> seen(nodes_.size(), false);
  for (int old = 0; old < num_nodes(); ++old) {
    const int nu = perm[static_cast<size_t>(old)];
    FEIO_REQUIRE(nu >= 0 && nu < num_nodes(), "permutation index out of range");
    FEIO_REQUIRE(!seen[static_cast<size_t>(nu)], "permutation is not a bijection");
    seen[static_cast<size_t>(nu)] = true;
    new_nodes[static_cast<size_t>(nu)] = nodes_[static_cast<size_t>(old)];
  }
  nodes_ = std::move(new_nodes);
  for (Element& el : elements_) {
    for (int& n : el.n) n = perm[static_cast<size_t>(n)];
  }
}

}  // namespace feio::mesh
