// Test helpers for callers that hold a mesh or an assembly without what
// the library threads between its stages: a topology to validate with, and
// a node lookup by grid point (the assembler numbers the grid by sorting,
// so an Assembly keeps only each node's grid point).
#pragma once

#include <algorithm>
#include <optional>

#include <gtest/gtest.h>

#include "idlz/assembler.h"
#include "mesh/topology.h"
#include "mesh/validate.h"

namespace mesh_helpers {

// mesh::validate for a caller without a topology: validate builds one once
// the element checks pass.
inline feio::mesh::ValidationReport validate(const feio::mesh::TriMesh& m) {
  std::optional<feio::mesh::Topology> topo;
  return feio::mesh::validate(m, topo);
}

// The node at grid point `gp` of an assembly, found through grid_of; -1
// when no node is there.
inline int node_at(const feio::idlz::Assembly& a, feio::idlz::GridPoint gp) {
  const auto it = std::find(a.grid_of.begin(), a.grid_of.end(), gp);
  return it == a.grid_of.end() ? -1
                               : static_cast<int>(it - a.grid_of.begin());
}

// Expects `kept`, a topology a stage kept in step with `mesh`, to equal a
// fresh Topology(mesh) in every table it holds.
inline void expect_topology_of(const feio::mesh::Topology& kept,
                               const feio::mesh::TriMesh& mesh) {
  const feio::mesh::Topology fresh(mesh);
  ASSERT_EQ(kept.num_nodes(), fresh.num_nodes());
  ASSERT_EQ(kept.num_edges(), fresh.num_edges());
  EXPECT_TRUE(std::ranges::equal(kept.edges(), fresh.edges()));
  for (int id = 0; id < fresh.num_edges(); ++id) {
    EXPECT_TRUE(std::ranges::equal(kept.edge_elements(id),
                                   fresh.edge_elements(id)))
        << "edge " << id;
  }
  for (int el = 0; el < mesh.num_elements(); ++el) {
    EXPECT_EQ(kept.element_edges(el), fresh.element_edges(el))
        << "element " << el;
  }
  for (int n = 0; n < fresh.num_nodes(); ++n) {
    EXPECT_TRUE(std::ranges::equal(kept.neighbors(n), fresh.neighbors(n)))
        << "node " << n;
    EXPECT_TRUE(std::ranges::equal(kept.elements_of(n), fresh.elements_of(n)))
        << "node " << n;
    EXPECT_EQ(kept.boundary_kind(n), fresh.boundary_kind(n)) << "node " << n;
  }
  EXPECT_TRUE(
      std::ranges::equal(kept.boundary_edges(), fresh.boundary_edges()));
}

}  // namespace mesh_helpers
