#include <numbers>

#include <gtest/gtest.h>

#include "idlz/idlz.h"
#include "idlz/reform.h"
#include "mesh/quality.h"
#include "mesh/validate.h"
#include "scenarios/scenarios.h"

namespace feio::idlz {
namespace {

using geom::Vec2;

constexpr double kDegPerRad = 180.0 / std::numbers::pi;

// Quad with a bad diagonal: (0,0),(4,0),(4,1),(0,1) split through the long
// diagonal gives skinny triangles; the flip shortens it.
mesh::TriMesh bad_quad() {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({4, 0.5});
  m.add_node({8, 0});
  m.add_node({4, -0.5});
  // Diagonal 0-2 (long) instead of 1-3 (short).
  m.add_element(0, 2, 1);
  m.add_element(0, 3, 2);
  m.orient_ccw();
  return m;
}

TEST(FlipImprovesTest, DetectsBadDiagonal) {
  const mesh::TriMesh m = bad_quad();
  EXPECT_TRUE(flip_improves(m, 0, 1, 1e-9));
}

TEST(FlipImprovesTest, GoodDiagonalStays) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({1, 1});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  m.add_element(0, 2, 3);
  // A square's diagonals are equivalent: no strict improvement.
  EXPECT_FALSE(flip_improves(m, 0, 1, 1e-9));
}

TEST(FlipImprovesTest, NonAdjacentElementsFalse) {
  mesh::TriMesh m;
  for (int i = 0; i < 6; ++i) {
    m.add_node({static_cast<double>(i % 3) + (i / 3) * 10.0,
                static_cast<double>(i / 3)});
  }
  m.add_element(0, 1, 2);
  m.add_element(3, 4, 5);
  EXPECT_FALSE(flip_improves(m, 0, 1, 1e-9));
}

TEST(ReformTest, FlipsBadQuad) {
  mesh::TriMesh m = bad_quad();
  const double before = mesh::summarize_quality(m).min_angle_rad;
  const ReformReport rep = reform(m);
  EXPECT_EQ(rep.flips, 1);
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(mesh::summarize_quality(m).min_angle_rad, before);
  EXPECT_TRUE(mesh::validate(m).ok());
  // The new diagonal connects nodes 1 and 3.
  int diag13 = 0;
  for (int e = 0; e < 2; ++e) {
    const auto& n = m.element(e).n;
    const bool has1 = n[0] == 1 || n[1] == 1 || n[2] == 1;
    const bool has3 = n[0] == 3 || n[1] == 3 || n[2] == 3;
    if (has1 && has3) ++diag13;
  }
  EXPECT_EQ(diag13, 2);
}

TEST(ReformTest, PreservesCounts) {
  mesh::TriMesh m = bad_quad();
  reform(m);
  EXPECT_EQ(m.num_nodes(), 4);
  EXPECT_EQ(m.num_elements(), 2);
}

TEST(ReformTest, NoFlipsOnGoodMesh) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0.5, 0.9});
  m.add_node({1.5, 0.9});
  m.add_element(0, 1, 2);
  m.add_element(1, 3, 2);
  const ReformReport rep = reform(m);
  EXPECT_EQ(rep.flips, 0);
  EXPECT_EQ(rep.passes, 1);
}

TEST(ReformTest, NonConvexQuadNeverFlipped) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({4, 0});
  m.add_node({4, 4});
  m.add_node({3.2, 1.2});  // reflex vertex: quad 0-1-2-3 is non-convex
  m.add_element(0, 1, 3);
  m.add_element(1, 2, 3);
  m.orient_ccw();
  const ReformReport rep = reform(m);
  EXPECT_EQ(rep.flips, 0);
  EXPECT_TRUE(mesh::validate(m).ok());
}

TEST(ReformTest, Figure10NeedlesImprove) {
  // The paper's Figure 10: the skewed trapezoid's initial elements have
  // needle-like corners; reform removes the worst of them.
  IdlzCase c = scenarios::fig10_needle_trapezoid();
  c.options.reform_elements = false;
  const IdlzResult before = run(c);
  c.options.reform_elements = true;
  const IdlzResult after = run(c);

  const auto qb = mesh::summarize_quality(before.mesh);
  const auto qa = mesh::summarize_quality(after.mesh);
  EXPECT_GT(after.reform.flips, 0);
  // The apex corner's own angle is fixed by the boundary, so the worst
  // single element may not move; the population of needles does.
  EXPECT_GT(qa.mean_min_angle_rad, qb.mean_min_angle_rad);
  // Ablation A2. The paper shows the needle corners removed, no count.
  EXPECT_EQ(qb.needle_count, 14);
  EXPECT_EQ(qa.needle_count, 6);
  EXPECT_NEAR(qb.mean_min_angle_rad * kDegPerRad, 11.6, 0.05);
  EXPECT_NEAR(qa.mean_min_angle_rad * kDegPerRad, 28.2, 0.05);
  EXPECT_GE(qa.min_angle_rad, qb.min_angle_rad - 1e-12);
  EXPECT_EQ(before.mesh.num_elements(), after.mesh.num_elements());
  EXPECT_TRUE(mesh::validate(after.mesh).ok());
}

TEST(ReformTest, Figure9HatchReformKeepsMeshValid) {
  IdlzCase c = scenarios::fig09_dsrv_hatch();
  const IdlzResult r = run(c);
  EXPECT_TRUE(r.reform.converged);
  EXPECT_TRUE(mesh::validate(r.mesh).ok());
  // Reform only ever improves the worst angle: 11.3 -> 14.3 degrees over
  // 43 flips here.
  EXPECT_GE(mesh::summarize_quality(r.mesh).min_angle_rad,
            mesh::summarize_quality(r.before_reform).min_angle_rad);
  EXPECT_EQ(r.reform.flips, 43);
  EXPECT_NEAR(mesh::summarize_quality(r.before_reform).min_angle_rad *
                  kDegPerRad,
              11.3, 0.05);
  EXPECT_NEAR(mesh::summarize_quality(r.mesh).min_angle_rad * kDegPerRad,
              14.3, 0.05);
  // Ablation A2: needles with reform off, then on. The paper shows the
  // hatch before and after reform and gives no count.
  c.options.reform_elements = false;
  EXPECT_EQ(mesh::summarize_quality(run(c).mesh).needle_count, 30);
  EXPECT_EQ(mesh::summarize_quality(r.mesh).needle_count, 7);
  // Alternating diagonals at element creation halve the needles reform
  // has to repair.
  c.options.diagonals = DiagonalStyle::kAlternating;
  EXPECT_EQ(mesh::summarize_quality(run(c).mesh).needle_count, 16);
}

// Reform across the whole idealization gallery: never loses elements,
// never degrades the worst angle, always converges.
class ReformSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReformSweep, MonotoneQuality) {
  const auto cases = scenarios::all_idealizations();
  const auto& nc = cases[static_cast<size_t>(GetParam())];
  const IdlzResult r = run(nc.c);
  EXPECT_TRUE(r.reform.converged) << nc.id;
  EXPECT_GE(mesh::summarize_quality(r.mesh).min_angle_rad,
            mesh::summarize_quality(r.before_reform).min_angle_rad - 1e-12)
      << nc.id;
  EXPECT_EQ(r.mesh.num_elements(), r.before_reform.num_elements()) << nc.id;
  EXPECT_TRUE(mesh::validate(r.mesh).ok()) << nc.id;
}

INSTANTIATE_TEST_SUITE_P(AllFigures, ReformSweep,
                         ::testing::Range(0, 22));

}  // namespace
}  // namespace feio::idlz
