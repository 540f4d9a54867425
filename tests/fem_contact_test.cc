// Unilateral contact (active set) and thermal-strain loading.
#include <cmath>

#include <gtest/gtest.h>

#include "fem/contact.h"
#include "fem/solver.h"
#include "fem/stress.h"
#include "util/error.h"

namespace feio::fem {
namespace {

using geom::Vec2;

mesh::TriMesh beam(int nx, double length, double height) {
  mesh::TriMesh m;
  for (int j = 0; j <= 1; ++j) {
    for (int i = 0; i <= nx; ++i) {
      m.add_node({length * i / nx, height * j});
    }
  }
  auto id = [nx](int i, int j) { return j * (nx + 1) + i; };
  for (int i = 0; i < nx; ++i) {
    m.add_element(id(i, 0), id(i + 1, 0), id(i + 1, 1));
    m.add_element(id(i, 0), id(i + 1, 1), id(i, 1));
  }
  return m;
}

// ---- Contact ----------------------------------------------------------------

TEST(ContactTest, SeesawLiftsOffUnloadedEnd) {
  // A beam pinned at mid-span, pushed down at the right end, with
  // candidate supports under both ends: the left support must release.
  const int nx = 8;
  const mesh::TriMesh m = beam(nx, 8.0, 1.0);
  auto id = [nx](int i, int j) { return j * (nx + 1) + i; };

  StaticProblem prob(m, Analysis::kPlaneStress);
  prob.set_material(Material::isotropic(1.0e6, 0.3));
  prob.fix(id(nx / 2, 0), true, true);  // pivot
  prob.point_load(id(nx, 1), {0.0, -100.0});

  const std::vector<ContactSupport> supports{{id(0, 0), 0.0},
                                             {id(nx, 0), 0.0}};
  const ContactResult r = solve_with_contact(prob, supports);
  ASSERT_TRUE(r.converged);
  EXPECT_FALSE(r.active[0]);  // left end lifts off
  EXPECT_TRUE(r.active[1]);   // right end bears
  EXPECT_GT(r.reaction[1], 0.0);
  EXPECT_DOUBLE_EQ(r.reaction[0], 0.0);
  // The released end moved up, the bearing end sits on its seat.
  EXPECT_GT(r.solution.at(id(0, 0)).y, 0.0);
  EXPECT_NEAR(r.solution.at(id(nx, 0)).y, 0.0, 1e-12);
}

TEST(ContactTest, AllSupportsBearUnderUniformLoad) {
  const int nx = 8;
  const mesh::TriMesh m = beam(nx, 8.0, 1.0);
  auto id = [nx](int i, int j) { return j * (nx + 1) + i; };
  StaticProblem prob(m, Analysis::kPlaneStress);
  prob.set_material(Material::isotropic(1.0e6, 0.3));
  prob.fix(id(0, 0), true, false);  // lateral restraint only
  double total = 0.0;
  for (int i = 0; i <= nx; ++i) {
    prob.point_load(id(i, 1), {0.0, -10.0});
    total += 10.0;
  }
  std::vector<ContactSupport> supports;
  for (int i = 0; i <= nx; ++i) supports.push_back({id(i, 0), 0.0});
  const ContactResult r = solve_with_contact(prob, supports);
  ASSERT_TRUE(r.converged);
  double reaction_sum = 0.0;
  for (size_t s = 0; s < supports.size(); ++s) {
    EXPECT_TRUE(r.active[s]);
    EXPECT_GE(r.reaction[s], 0.0);
    reaction_sum += r.reaction[s];
  }
  EXPECT_NEAR(reaction_sum, total, 1e-6 * total);  // equilibrium
}

TEST(ContactTest, ComplementarityHolds) {
  const int nx = 10;
  const mesh::TriMesh m = beam(nx, 10.0, 1.0);
  auto id = [nx](int i, int j) { return j * (nx + 1) + i; };
  StaticProblem prob(m, Analysis::kPlaneStress);
  prob.set_material(Material::isotropic(1.0e6, 0.3));
  prob.fix(id(3, 0), true, true);
  prob.point_load(id(nx, 1), {0.0, -50.0});
  prob.point_load(id(0, 1), {0.0, 20.0});  // uplift at the left

  std::vector<ContactSupport> supports;
  for (int i : {0, 5, nx}) supports.push_back({id(i, 0), 0.0});
  const ContactResult r = solve_with_contact(prob, supports);
  ASSERT_TRUE(r.converged);
  for (size_t s = 0; s < supports.size(); ++s) {
    const double uy = r.solution.at(supports[s].node).y;
    if (r.active[s]) {
      EXPECT_NEAR(uy, 0.0, 1e-12);       // on the seat
      EXPECT_GE(r.reaction[s], -1e-9);   // pushing only
    } else {
      EXPECT_GE(uy, -1e-12);             // no penetration
      EXPECT_DOUBLE_EQ(r.reaction[s], 0.0);
    }
  }
}

TEST(ContactTest, GapDelaysEngagement) {
  // One support with a gap: under a small load the node does not reach the
  // seat; under a large load it engages at u_y = -gap.
  const int nx = 6;
  const mesh::TriMesh m = beam(nx, 6.0, 1.0);
  auto id = [nx](int i, int j) { return j * (nx + 1) + i; };

  auto run_case = [&](double load) {
    StaticProblem prob(m, Analysis::kPlaneStress);
    prob.set_material(Material::isotropic(1.0e5, 0.3));
    prob.fix(id(0, 0), true, true);
    prob.fix(id(0, 1), true, false);
    prob.point_load(id(nx, 1), {0.0, -load});
    const std::vector<ContactSupport> supports{{id(nx, 0), 0.01}};
    return solve_with_contact(prob, supports);
  };
  const ContactResult light = run_case(1.0);
  ASSERT_TRUE(light.converged);
  EXPECT_FALSE(light.active[0]);
  EXPECT_GT(light.solution.at(id(nx, 0)).y, -0.01);

  const ContactResult heavy = run_case(500.0);
  ASSERT_TRUE(heavy.converged);
  EXPECT_TRUE(heavy.active[0]);
  EXPECT_NEAR(heavy.solution.at(id(nx, 0)).y, -0.01, 1e-12);
  EXPECT_GT(heavy.reaction[0], 0.0);
}

TEST(ContactTest, MatchesBilateralWhenAllBear) {
  // When every support stays engaged the contact solution equals the
  // plain bilateral solve.
  const int nx = 4;
  const mesh::TriMesh m = beam(nx, 4.0, 1.0);
  auto id = [nx](int i, int j) { return j * (nx + 1) + i; };
  StaticProblem prob(m, Analysis::kPlaneStress);
  prob.set_material(Material::isotropic(1.0e6, 0.3));
  prob.fix(id(0, 0), true, false);
  for (int i = 0; i <= nx; ++i) prob.point_load(id(i, 1), {0.0, -5.0});

  std::vector<ContactSupport> supports;
  for (int i = 0; i <= nx; ++i) supports.push_back({id(i, 0), 0.0});
  const ContactResult contact = solve_with_contact(prob, supports);

  StaticProblem bilateral = prob;
  for (int i = 0; i <= nx; ++i) bilateral.fix(id(i, 0), false, true);
  const StaticSolution plain = solve(bilateral, RunOptions{});
  for (int n = 0; n < m.num_nodes(); ++n) {
    EXPECT_NEAR(contact.solution.at(n).x, plain.at(n).x, 1e-10);
    EXPECT_NEAR(contact.solution.at(n).y, plain.at(n).y, 1e-10);
  }
}

TEST(ContactTest, NoSupportsThrows) {
  const mesh::TriMesh m = beam(2, 2.0, 1.0);
  StaticProblem prob(m, Analysis::kPlaneStress);
  EXPECT_THROW(solve_with_contact(prob, {}), Error);
}

// ---- Thermal-strain loading ---------------------------------------------------

TEST(ThermalStressTest, FreeExpansionIsStressFree) {
  const int nx = 4;
  const mesh::TriMesh m = beam(nx, 4.0, 1.0);
  auto id = [nx](int i, int j) { return j * (nx + 1) + i; };
  StaticProblem prob(m, Analysis::kPlaneStress);
  prob.set_material(Material::isotropic(1.0e6, 0.3));
  prob.fix(id(0, 0), true, true);
  prob.fix(id(0, 1), true, false);
  const double alpha = 1e-5;
  const double dt = 100.0;
  prob.set_temperature_load(
      std::vector<double>(static_cast<size_t>(m.num_nodes()), 70.0 + dt),
      alpha, 70.0);
  const StaticSolution sol = solve(prob, RunOptions{});
  // Uniform expansion: u_x = alpha*dT*x; stress ~ 0.
  EXPECT_NEAR(sol.at(id(nx, 0)).x, alpha * dt * 4.0, 1e-9);
  for (const Stress& s : element_stresses(prob, sol)) {
    EXPECT_NEAR(s.s11, 0.0, 1e-6);
    EXPECT_NEAR(s.s22, 0.0, 1e-6);
    EXPECT_NEAR(s.s12, 0.0, 1e-6);
  }
}

TEST(ThermalStressTest, ConstrainedBarCompresses) {
  // Bar fixed at both ends, heated: sigma_x = -E * alpha * dT (nu = 0).
  const int nx = 6;
  const mesh::TriMesh m = beam(nx, 6.0, 1.0);
  auto id = [nx](int i, int j) { return j * (nx + 1) + i; };
  const double e_mod = 2.0e6;
  const double alpha = 1.2e-5;
  const double dt = 50.0;
  StaticProblem prob(m, Analysis::kPlaneStress);
  prob.set_material(Material::isotropic(e_mod, 0.0));
  for (int j = 0; j <= 1; ++j) {
    prob.fix(id(0, j), true, j == 0);
    prob.fix(id(nx, j), true, false);
  }
  prob.set_temperature_load(
      std::vector<double>(static_cast<size_t>(m.num_nodes()), dt), alpha,
      0.0);
  const StaticSolution sol = solve(prob, RunOptions{});
  for (const Stress& s : element_stresses(prob, sol)) {
    EXPECT_NEAR(s.s11, -e_mod * alpha * dt, 1e-6 * e_mod * alpha * dt);
  }
}

TEST(ThermalStressTest, GradientBendsFreeBeam) {
  // Hot top / cold bottom on a free beam: it arches (top expands) and the
  // axial stress stays small compared to the fully-constrained value.
  const int nx = 20;
  const mesh::TriMesh m = beam(nx, 10.0, 1.0);
  auto id = [nx](int i, int j) { return j * (nx + 1) + i; };
  StaticProblem prob(m, Analysis::kPlaneStress);
  prob.set_material(Material::isotropic(1.0e6, 0.0));
  prob.fix(id(0, 0), true, true);
  prob.fix(id(nx, 0), false, true);
  std::vector<double> temps(static_cast<size_t>(m.num_nodes()), 0.0);
  for (int i = 0; i <= nx; ++i) {
    temps[static_cast<size_t>(id(i, 1))] = 100.0;  // top hot
  }
  prob.set_temperature_load(temps, 1e-5, 0.0);
  const StaticSolution sol = solve(prob, RunOptions{});
  // Mid-span rises.
  EXPECT_GT(sol.at(id(nx / 2, 0)).y, 1e-5);
  // Ends rotate outward at the top.
  EXPECT_GT(sol.at(id(nx, 1)).x - sol.at(id(nx, 0)).x, 0.0);
}

TEST(ThermalStressTest, TemperatureCountValidated) {
  const mesh::TriMesh m = beam(2, 2.0, 1.0);
  StaticProblem prob(m, Analysis::kPlaneStress);
  EXPECT_THROW(prob.set_temperature_load({1.0, 2.0}, 1e-5, 0.0), Error);
}

TEST(ThermalStressTest, AxisymmetricFreeRingExpansion) {
  // A free ring heated uniformly grows radially by alpha*dT*r, stress-free.
  mesh::TriMesh m;
  const int nr = 4;
  for (int j = 0; j <= 1; ++j) {
    for (int i = 0; i <= nr; ++i) {
      m.add_node({2.0 + 0.25 * i, 0.2 * j});
    }
  }
  auto id = [nr](int i, int j) { return j * (nr + 1) + i; };
  for (int i = 0; i < nr; ++i) {
    m.add_element(id(i, 0), id(i + 1, 0), id(i + 1, 1));
    m.add_element(id(i, 0), id(i + 1, 1), id(i, 1));
  }
  StaticProblem prob(m, Analysis::kAxisymmetric);
  prob.set_material(Material::isotropic(1.0e6, 0.3));
  for (int i = 0; i <= nr; ++i) prob.fix(id(i, 0), false, true);
  const double alpha = 1e-5;
  const double dt = 200.0;
  prob.set_temperature_load(
      std::vector<double>(static_cast<size_t>(m.num_nodes()), dt), alpha,
      0.0);
  const StaticSolution sol = solve(prob, RunOptions{});
  for (int i = 0; i <= nr; ++i) {
    const double r = m.pos(id(i, 1)).x;
    EXPECT_NEAR(sol.at(id(i, 1)).x, alpha * dt * r, 1e-4 * alpha * dt * r);
  }
  for (const Stress& s : element_stresses(prob, sol)) {
    EXPECT_NEAR(s.von_mises(), 0.0, 1.0);  // ~0 vs E*alpha*dT = 2000
  }
}

}  // namespace
}  // namespace feio::fem
