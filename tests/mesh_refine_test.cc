#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "fem/solver.h"
#include "fem/stress.h"
#include "idlz/idlz.h"
#include "mesh/quality.h"
#include "mesh/refine.h"
#include "mesh/topology.h"
#include "mesh/validate.h"
#include "scenarios/scenarios.h"
#include "util/error.h"

namespace feio::mesh {
namespace {

TriMesh square() {
  TriMesh m;
  m.add_node({0, 0});
  m.add_node({2, 0});
  m.add_node({2, 2});
  m.add_node({0, 2});
  m.add_element(0, 1, 2);
  m.add_element(0, 2, 3);
  m.classify_boundary();
  return m;
}

TEST(RefineTest, CountsQuadruple) {
  const TriMesh m = square();
  const RefineResult r = refine_uniform(m);
  EXPECT_EQ(r.mesh.num_elements(), 8);
  // V' = V + E (one midpoint per edge): edges = 5.
  EXPECT_EQ(r.mesh.num_nodes(), 4 + 5);
  EXPECT_TRUE(validate(r.mesh).ok());
}

TEST(RefineTest, AreaPreserved) {
  const TriMesh m = square();
  const RefineResult r = refine_uniform(m);
  double area = 0.0;
  for (int e = 0; e < r.mesh.num_elements(); ++e) {
    area += r.mesh.signed_area(e);
  }
  EXPECT_NEAR(area, 4.0, 1e-12);
}

TEST(RefineTest, ParentageCoversFourChildrenEach) {
  const TriMesh m = square();
  const RefineResult r = refine_uniform(m);
  ASSERT_EQ(r.parent.size(), 8u);
  int of_first = 0;
  for (int p : r.parent) {
    if (p == 0) ++of_first;
  }
  EXPECT_EQ(of_first, 4);
}

TEST(RefineTest, OriginalNodesKeepIndices) {
  const TriMesh m = square();
  const RefineResult r = refine_uniform(m);
  for (int n = 0; n < m.num_nodes(); ++n) {
    EXPECT_EQ(r.mesh.pos(n), m.pos(n));
  }
}

TEST(RefineTest, QualityPreservedForCongruentSplit) {
  // Uniform splitting produces children similar to the parent: the worst
  // min-angle is unchanged.
  const idlz::IdlzResult base = idlz::run(scenarios::fig09_dsrv_hatch());
  const RefineResult r = refine_uniform(base.mesh);
  EXPECT_NEAR(summarize_quality(r.mesh).min_angle_rad,
              summarize_quality(base.mesh).min_angle_rad, 1e-9);
  EXPECT_TRUE(validate(r.mesh).ok());
  EXPECT_EQ(r.mesh.num_elements(), 4 * base.mesh.num_elements());
}

TEST(RefineTest, MultiLevelComposesParentage) {
  const TriMesh m = square();
  const RefineResult r = refine_uniform(m, 2);
  EXPECT_EQ(r.mesh.num_elements(), 2 * 16);
  for (int p : r.parent) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 2);  // parents index the *original* two elements
  }
  const RefineResult zero = refine_uniform(m, 0);
  EXPECT_EQ(zero.mesh.num_elements(), 2);
  EXPECT_EQ(zero.parent, (std::vector<int>{0, 1}));
  EXPECT_THROW(refine_uniform(m, -1), Error);
}

TEST(RefineTest, BoundaryMidpointsAreBoundary) {
  const TriMesh m = square();
  const RefineResult r = refine_uniform(m);
  const Topology topo(r.mesh);
  EXPECT_EQ(topo.boundary_edges().size(), 8u);  // each outer edge split
  // Midpoint of an outer edge carries a boundary flag.
  for (int n = m.num_nodes(); n < r.mesh.num_nodes(); ++n) {
    const geom::Vec2 p = r.mesh.pos(n);
    const bool on_rim = p.x == 0.0 || p.x == 2.0 || p.y == 0.0 || p.y == 2.0;
    EXPECT_EQ(r.mesh.node(n).boundary != BoundaryKind::kInterior, on_rim);
  }
}

// Refinement drives FEM convergence on an IDLZ mesh: the glass-sphere
// hatch's peak hoop compression approaches the membrane value as the
// idealization refines.
TEST(RefineTest, ConvergenceOnIdlzMesh) {
  const idlz::IdlzCase c = scenarios::fig18_sphere_hatch();
  const idlz::IdlzResult base = idlz::run(c);

  auto peak_hoop = [](const TriMesh& mesh) {
    fem::StaticProblem prob(mesh, fem::Analysis::kAxisymmetric);
    prob.set_material(fem::Material::isotropic(9.5e6, 0.22));
    const Topology topo(mesh);
    for (int n = 0; n < mesh.num_nodes(); ++n) {
      const geom::Vec2 p = mesh.pos(n);
      if (std::abs(p.x) < 1e-9) prob.fix(n, true, false);
      // Seat: the low-latitude rim (z below the 15-degree line).
      if (p.y < 10.3 * std::sin(15.0 * std::numbers::pi / 180.0) + 1e-6) {
        prob.fix(n, false, true);
      }
    }
    for (const Edge& e : topo.boundary_edges()) {
      // Tolerance covers chord sagitta: refined midpoints sit ~c^2/8R
      // inside the true arc.
      if (std::abs(mesh.pos(e.a).norm() - 10.3) < 0.02 &&
          std::abs(mesh.pos(e.b).norm() - 10.3) < 0.02) {
        const auto elems = topo.edge_elements(e);
        const Element& el = mesh.element(elems[0]);
        int a = e.a;
        int b = e.b;
        for (int k = 0; k < 3; ++k) {
          if (el.n[static_cast<size_t>(k)] == e.b &&
              el.n[static_cast<size_t>((k + 1) % 3)] == e.a) {
            std::swap(a, b);
            break;
          }
        }
        prob.edge_pressure(a, b, 1000.0);
      }
    }
    const fem::StaticSolution sol = fem::solve(prob, RunOptions{});
    const auto hoop =
        fem::nodal_field(prob, sol, fem::StressComponent::kCircumferential);
    return *std::min_element(hoop.begin(), hoop.end());
  };

  const double coarse = peak_hoop(base.mesh);
  const double fine = peak_hoop(refine_uniform(base.mesh).mesh);
  // Both compressive and within a factor; refinement changes the answer by
  // less than the coarse discretization scale (stability, not blow-up).
  EXPECT_LT(coarse, 0.0);
  EXPECT_LT(fine, 0.0);
  EXPECT_NEAR(fine / coarse, 1.0, 0.35);
}

}  // namespace
}  // namespace feio::mesh
