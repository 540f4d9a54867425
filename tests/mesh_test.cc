#include <algorithm>
#include <numbers>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "mesh/bandwidth.h"
#include "mesh/quality.h"
#include "mesh/topology.h"
#include "mesh/tri_mesh.h"
#include "mesh/validate.h"
#include "mesh_helpers.h"
#include "util/error.h"

namespace feio::mesh {
namespace {

using geom::Vec2;

// Unit square split along the lower-left/upper-right diagonal.
TriMesh square_mesh() {
  TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({1, 1});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  m.add_element(0, 2, 3);
  return m;
}

// n x n grid of squares, each split in two.
TriMesh grid_mesh(int n) {
  TriMesh m;
  for (int j = 0; j <= n; ++j) {
    for (int i = 0; i <= n; ++i) {
      m.add_node({static_cast<double>(i), static_cast<double>(j)});
    }
  }
  auto id = [n](int i, int j) { return j * (n + 1) + i; };
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      m.add_element(id(i, j), id(i + 1, j), id(i + 1, j + 1));
      m.add_element(id(i, j), id(i + 1, j + 1), id(i, j + 1));
    }
  }
  return m;
}

TEST(TriMeshTest, AddAndQuery) {
  TriMesh m = square_mesh();
  EXPECT_EQ(m.num_nodes(), 4);
  EXPECT_EQ(m.num_elements(), 2);
  EXPECT_EQ(m.pos(2), (Vec2{1, 1}));
  EXPECT_DOUBLE_EQ(m.signed_area(0), 0.5);
  EXPECT_DOUBLE_EQ(m.signed_area(1), 0.5);
}

TEST(TriMeshTest, RepeatedNodeInElementThrows) {
  TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  EXPECT_THROW(m.add_element(0, 0, 1), Error);
}

TEST(TriMeshTest, OrientCcwFlipsClockwiseElements) {
  TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 2, 1);  // CW
  EXPECT_LT(m.signed_area(0), 0.0);
  EXPECT_EQ(m.orient_ccw(), 1);
  EXPECT_GT(m.signed_area(0), 0.0);
  EXPECT_EQ(m.orient_ccw(), 0);  // idempotent
}

TEST(TriMeshTest, ClassifyBoundarySquare) {
  TriMesh m = square_mesh();
  m.classify_boundary(mesh::Topology(m));
  // Every node is on the boundary; nodes 1 and 3 belong to one element.
  EXPECT_EQ(m.node(0).boundary, BoundaryKind::kBoundaryShared);
  EXPECT_EQ(m.node(1).boundary, BoundaryKind::kBoundarySingle);
  EXPECT_EQ(m.node(2).boundary, BoundaryKind::kBoundaryShared);
  EXPECT_EQ(m.node(3).boundary, BoundaryKind::kBoundarySingle);
}

TEST(TriMeshTest, ClassifyBoundaryInteriorNode) {
  TriMesh m = grid_mesh(2);
  m.classify_boundary(mesh::Topology(m));
  // Node at (1,1) (index 4) is interior.
  EXPECT_EQ(m.node(4).boundary, BoundaryKind::kInterior);
  EXPECT_EQ(m.node(0).boundary, BoundaryKind::kBoundaryShared);
}

TEST(TriMeshTest, RenumberNodes) {
  TriMesh m = square_mesh();
  // Reverse the numbering.
  m.renumber_nodes({3, 2, 1, 0});
  EXPECT_EQ(m.pos(3), (Vec2{0, 0}));
  EXPECT_EQ(m.pos(0), (Vec2{0, 1}));
  EXPECT_EQ(m.element(0).n, (std::array<int, 3>{3, 2, 1}));
}

TEST(TriMeshTest, RenumberRejectsNonBijection) {
  TriMesh m = square_mesh();
  EXPECT_THROW(m.renumber_nodes({0, 0, 1, 2}), Error);
  EXPECT_THROW(m.renumber_nodes({0, 1, 2}), Error);
  EXPECT_THROW(m.renumber_nodes({0, 1, 2, 7}), Error);
}

TEST(TriMeshTest, Bounds) {
  const TriMesh m = square_mesh();
  const geom::BBox b = m.bounds();
  EXPECT_EQ(b.lo, (Vec2{0, 0}));
  EXPECT_EQ(b.hi, (Vec2{1, 1}));
}

// ---- Topology -----------------------------------------------------------

std::vector<int> vec(std::span<const int> s) { return {s.begin(), s.end()}; }

TEST(TopologyTest, NeighborsOfSquare) {
  const TriMesh m = square_mesh();
  const Topology t(m);
  EXPECT_EQ(vec(t.neighbors(0)), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(vec(t.neighbors(1)), (std::vector<int>{0, 2}));
}

TEST(TopologyTest, ElementsOfNode) {
  const TriMesh m = square_mesh();
  const Topology t(m);
  EXPECT_EQ(vec(t.elements_of(0)), (std::vector<int>{0, 1}));
  EXPECT_EQ(vec(t.elements_of(1)), (std::vector<int>{0}));
}

TEST(TopologyTest, EdgeElements) {
  const TriMesh m = square_mesh();
  const Topology t(m);
  EXPECT_EQ(t.edge_elements(Edge(0, 2)).size(), 2u);  // the diagonal
  EXPECT_EQ(t.edge_elements(Edge(0, 1)).size(), 1u);
  EXPECT_TRUE(t.edge_elements(Edge(1, 3)).empty());   // not an edge
}

TEST(TopologyTest, BoundaryEdgesOfSquare) {
  const TriMesh m = square_mesh();
  const Topology t(m);
  EXPECT_EQ(t.boundary_edges().size(), 4u);
  EXPECT_EQ(t.interior_edges().size(), 1u);
}

TEST(TopologyTest, BoundaryLoopClosed) {
  const TriMesh m = grid_mesh(3);
  const Topology t(m);
  const auto loops = t.boundary_loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].size(), 12u);  // 4 * 3 perimeter nodes
}

TEST(TopologyTest, GridBoundaryCount) {
  const TriMesh m = grid_mesh(4);
  const Topology t(m);
  EXPECT_EQ(t.boundary_edges().size(), 16u);
}

// ---- Quality ------------------------------------------------------------

TEST(QualityTest, EquilateralMinAngle) {
  TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0.5, std::sqrt(3.0) / 2.0});
  m.add_element(0, 1, 2);
  EXPECT_NEAR(min_angle(m, 0), std::numbers::pi / 3, 1e-12);
  EXPECT_NEAR(max_angle(m, 0), std::numbers::pi / 3, 1e-12);
  EXPECT_NEAR(aspect_ratio(m, 0), 2.0 / std::sqrt(3.0), 1e-12);
}

TEST(QualityTest, RightTriangle) {
  TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  EXPECT_NEAR(min_angle(m, 0), std::numbers::pi / 4, 1e-12);
  EXPECT_NEAR(max_angle(m, 0), std::numbers::pi / 2, 1e-12);
}

TEST(QualityTest, NeedleHasHugeAspect) {
  TriMesh m;
  m.add_node({0, 0});
  m.add_node({10, 0});
  m.add_node({5, 0.01});
  m.add_element(0, 1, 2);
  EXPECT_GT(aspect_ratio(m, 0), 100.0);
  EXPECT_LT(min_angle(m, 0), 0.01);
}

TEST(QualityTest, DegenerateAspectIsInf) {
  TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 1});
  m.add_node({2, 2});
  m.add_element(0, 1, 2);
  EXPECT_TRUE(std::isinf(aspect_ratio(m, 0)));
}

TEST(QualityTest, SummaryCountsNeedles) {
  TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0.5, std::sqrt(3.0) / 2.0});
  m.add_node({10, 0.02});
  m.add_element(0, 1, 2);   // equilateral
  m.add_element(1, 3, 2);   // skinny
  const QualitySummary q = summarize_quality(m);
  EXPECT_EQ(q.needle_count, 1);
  EXPECT_NEAR(q.min_angle_rad, min_angle(m, 1), 1e-12);
  EXPECT_GT(q.max_aspect, aspect_ratio(m, 0));
}

TEST(QualityTest, HistogramSumsToElementCount) {
  const TriMesh m = grid_mesh(3);
  const auto h = min_angle_histogram(m, 9);
  int total = 0;
  for (int c : h) total += c;
  EXPECT_EQ(total, m.num_elements());
}

// ---- Bandwidth ----------------------------------------------------------

TEST(BandwidthTest, SquareMesh) {
  EXPECT_EQ(bandwidth(square_mesh()), 3);
}

TEST(BandwidthTest, GridRowMajorBandwidth) {
  // Row-major numbering of an n x n grid has bandwidth n + 2 (diagonal).
  EXPECT_EQ(bandwidth(grid_mesh(4)), 6);
}

TEST(BandwidthTest, EmptyMeshIsZero) {
  EXPECT_EQ(bandwidth(TriMesh{}), 0);
  EXPECT_EQ(profile(TriMesh{}), 0);
}

TEST(BandwidthTest, SingleNodeProfileCountsDiagonal) {
  // profile() is the exact skyline entry count, diagonal included: a lone
  // node contributes its one diagonal entry.
  TriMesh m;
  m.add_node({0, 0});
  EXPECT_EQ(bandwidth(m), 0);
  EXPECT_EQ(profile(m), 1);
}

TEST(BandwidthTest, ProfilePositiveAndBoundedByBandwidth) {
  const TriMesh m = grid_mesh(4);
  const long p = profile(m);
  EXPECT_GT(p, 0);
  EXPECT_LE(p, static_cast<long>(bandwidth(m)) * m.num_nodes());
}

// ---- Validate -----------------------------------------------------------

TEST(ValidateTest, GoodMeshPasses) {
  TriMesh m = grid_mesh(3);
  m.classify_boundary(mesh::Topology(m));
  const ValidationReport rep = mesh_helpers::validate(m);
  EXPECT_TRUE(rep.ok()) << (rep.errors().empty() ? "" : rep.errors()[0]);
  EXPECT_TRUE(rep.warnings().empty());
}

TEST(ValidateTest, DetectsDuplicateElement) {
  TriMesh m = square_mesh();
  m.add_element(2, 0, 1);  // same nodes as element 0, rotated
  const ValidationReport rep = mesh_helpers::validate(m);
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.errors()[0].find("duplicate"), std::string::npos);
}

TEST(ValidateTest, DetectsZeroArea) {
  TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 1});
  m.add_node({2, 2});
  m.add_element(0, 1, 2);
  EXPECT_FALSE(mesh_helpers::validate(m).ok());
}

TEST(ValidateTest, DetectsNonManifoldEdge) {
  TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_node({1, 1});
  m.add_node({-1, 1});
  m.add_element(0, 1, 2);
  m.add_element(0, 1, 3);
  m.add_element(0, 1, 4);  // edge (0,1) now in three elements
  const ValidationReport rep = mesh_helpers::validate(m);
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.errors()[0].find("shared by 3"), std::string::npos);
}

TEST(ValidateTest, WarnsOnWrongBoundaryFlag) {
  TriMesh m = square_mesh();
  m.classify_boundary(mesh::Topology(m));
  m.node(0).boundary = BoundaryKind::kInterior;  // wrong on purpose
  const ValidationReport rep = mesh_helpers::validate(m);
  EXPECT_TRUE(rep.ok());
  EXPECT_FALSE(rep.warnings().empty());
}

TEST(ValidateTest, WarnsOnIsolatedNode) {
  TriMesh m = square_mesh();
  m.classify_boundary(mesh::Topology(m));
  m.add_node({9, 9});
  const ValidationReport rep = mesh_helpers::validate(m);
  EXPECT_TRUE(rep.ok());
  bool found = false;
  for (const auto& w : rep.warnings()) {
    if (w.find("no element") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ValidateTest, WarnsOnDisconnectedComponents) {
  TriMesh m = square_mesh();
  const int a = m.add_node({10, 10});
  const int b = m.add_node({11, 10});
  const int c = m.add_node({10, 11});
  m.add_element(a, b, c);
  m.classify_boundary(mesh::Topology(m));
  const ValidationReport rep = mesh_helpers::validate(m);
  EXPECT_TRUE(rep.ok());
  bool found = false;
  for (const auto& w : rep.warnings()) {
    if (w.find("connected component") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

// Property sweep: grids of several sizes validate clean and have the
// expected Euler characteristic (V - E + F = 1 for a disk).
class GridMeshTest : public ::testing::TestWithParam<int> {};

TEST_P(GridMeshTest, EulerCharacteristic) {
  const int n = GetParam();
  TriMesh m = grid_mesh(n);
  m.classify_boundary(mesh::Topology(m));
  EXPECT_TRUE(mesh_helpers::validate(m).ok());
  const Topology t(m);
  const long edges = static_cast<long>(t.boundary_edges().size()) +
                     static_cast<long>(t.interior_edges().size());
  EXPECT_EQ(m.num_nodes() - edges + m.num_elements(), 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GridMeshTest, ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace feio::mesh
