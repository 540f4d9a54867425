// Convergence of the FEM substrate against closed-form solutions: the CST
// is a first-order element, so displacement errors should shrink roughly
// linearly (or better) with mesh refinement, and the transient conduction
// solver should approach the semi-infinite-slab similarity solution.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "fem/solver.h"
#include "fem/stress.h"
#include "fem/thermal.h"

namespace feio::fem {
namespace {

mesh::TriMesh annulus_slice(double ri, double ro, int nr, int nz,
                            double height) {
  mesh::TriMesh m;
  for (int j = 0; j <= nz; ++j) {
    for (int i = 0; i <= nr; ++i) {
      m.add_node({ri + (ro - ri) * i / nr, height * j / nz});
    }
  }
  auto id = [nr](int i, int j) { return j * (nr + 1) + i; };
  for (int j = 0; j < nz; ++j) {
    for (int i = 0; i < nr; ++i) {
      m.add_element(id(i, j), id(i + 1, j), id(i + 1, j + 1));
      m.add_element(id(i, j), id(i + 1, j + 1), id(i, j + 1));
    }
  }
  return m;
}

// Lamé bore displacement error for a given radial refinement.
double lame_bore_error(int nr) {
  const double ri = 1.0;
  const double ro = 2.0;
  const double p = 10.0;
  const double e_mod = 1000.0;
  const double nu = 0.3;
  mesh::TriMesh m = annulus_slice(ri, ro, nr, 2, 0.2);
  StaticProblem prob(m, Analysis::kAxisymmetric);
  prob.set_material(Material::isotropic(e_mod, nu));
  for (int n = 0; n < m.num_nodes(); ++n) prob.fix(n, false, true);
  auto id = [nr](int i, int j) { return j * (nr + 1) + i; };
  for (int j = 0; j < 2; ++j) {
    prob.edge_pressure(id(0, j + 1), id(0, j), p);
  }
  const StaticSolution sol = solve(prob, RunOptions{});

  const double a = p * ri * ri / (ro * ro - ri * ri);
  const double b = a * ro * ro;
  const double u_exact =
      (1 + nu) / e_mod * (a * (1 - 2 * nu) * ri + b / ri);
  return std::abs(sol.at(id(0, 1)).x - u_exact) / u_exact;
}

TEST(ConvergenceTest, LameDisplacementErrorShrinks) {
  const double e8 = lame_bore_error(8);
  const double e16 = lame_bore_error(16);
  const double e32 = lame_bore_error(32);
  EXPECT_LT(e16, e8);
  EXPECT_LT(e32, e16);
  EXPECT_LT(e32, 0.01);  // under 1% at 32 radial divisions
}

// Parameterized sweep: the bore displacement converges monotonically from
// a consistent side.
class LameSweep : public ::testing::TestWithParam<int> {};

TEST_P(LameSweep, ErrorBelowMeshDependentBound) {
  const int nr = GetParam();
  // Empirically first-order-ish: allow C/nr with margin.
  EXPECT_LT(lame_bore_error(nr), 1.2 / nr);
}

INSTANTIATE_TEST_SUITE_P(Refinements, LameSweep,
                         ::testing::Values(4, 8, 12, 16, 24, 32));

// Plane-stress pure bending of a cantilever-ish beam: tip deflection of a
// end-loaded beam approaches Euler-Bernoulli + shear as the mesh refines.
double beam_tip_error(int nx) {
  const double length = 10.0;
  const double h = 1.0;
  const double e_mod = 1.0e4;
  const double nu = 0.0;
  const double load = 1.0;  // total end shear
  const int ny = std::max(2, nx / 5);
  mesh::TriMesh m;
  for (int j = 0; j <= ny; ++j) {
    for (int i = 0; i <= nx; ++i) {
      m.add_node({length * i / nx, h * j / ny - h / 2});
    }
  }
  auto id = [nx](int i, int j) { return j * (nx + 1) + i; };
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      m.add_element(id(i, j), id(i + 1, j), id(i + 1, j + 1));
      m.add_element(id(i, j), id(i + 1, j + 1), id(i, j + 1));
    }
  }
  StaticProblem prob(m, Analysis::kPlaneStress);
  prob.set_material(Material::isotropic(e_mod, nu));
  for (int j = 0; j <= ny; ++j) prob.fix(id(0, j), true, true);
  for (int j = 0; j <= ny; ++j) {
    prob.point_load(id(nx, j), {0.0, -load / (ny + 1)});
  }
  const StaticSolution sol = solve(prob, RunOptions{});
  const double inertia = h * h * h / 12.0;
  const double bending = load * length * length * length / (3.0 * e_mod * inertia);
  // Timoshenko shear term with k = 5/6.
  const double g = e_mod / 2.0;
  const double shear = load * length / (5.0 / 6.0 * g * h);
  const double exact = bending + shear;
  return std::abs(-sol.at(id(nx, ny / 2)).y - exact) / exact;
}

TEST(ConvergenceTest, CantileverTipDeflection) {
  // CSTs lock in bending, so coarse meshes are stiff; the error must fall
  // markedly with refinement.
  const double coarse = beam_tip_error(10);
  const double fine = beam_tip_error(40);
  EXPECT_LT(fine, coarse);
  EXPECT_LT(fine, 0.30);
  EXPECT_GT(coarse, fine * 1.5);
}

// Transient conduction: a half-space with a constant surface flux has the
// similarity solution
//   T(x,t) = (2 q / k) sqrt(alpha t / pi) exp(-x^2/(4 alpha t))
//            - (q x / k) erfc(x / (2 sqrt(alpha t)))
// Model a long strip heated at x = 0 and compare at a time before the far
// end feels anything.
TEST(ConvergenceTest, ThermalHalfSpaceFlux) {
  const double k_cond = 1.0;
  const double rho_c = 1.0;
  const double alpha = k_cond / rho_c;
  const double q = 1.0;
  const double t_end = 1.0;
  const double length = 10.0;  // >> sqrt(alpha t): effectively semi-infinite
  const int nx = 200;

  mesh::TriMesh m;
  for (int j = 0; j <= 1; ++j) {
    for (int i = 0; i <= nx; ++i) {
      m.add_node({length * i / nx, 0.1 * j});
    }
  }
  auto id = [nx](int i, int j) { return j * (nx + 1) + i; };
  for (int i = 0; i < nx; ++i) {
    m.add_element(id(i, 0), id(i + 1, 0), id(i + 1, 1));
    m.add_element(id(i, 0), id(i + 1, 1), id(i, 1));
  }
  ThermalProblem prob(m, Analysis::kPlaneStress);
  prob.set_material({k_cond, rho_c});
  prob.add_pulse({id(0, 0), id(0, 1), q, 0.0, t_end + 1.0});
  const auto snaps = prob.integrate(0.002, t_end, {t_end});

  auto exact = [&](double x) {
    const double s = std::sqrt(alpha * t_end);
    return 2.0 * q / k_cond * std::sqrt(alpha * t_end / M_PI) *
               std::exp(-x * x / (4.0 * alpha * t_end)) -
           q * x / k_cond * std::erfc(x / (2.0 * s));
  };
  // Surface temperature: T(0,t) = 2q sqrt(alpha t / pi) / k.
  const double surf_exact = exact(0.0);
  EXPECT_NEAR(snaps[0][static_cast<size_t>(id(0, 0))], surf_exact,
              0.05 * surf_exact);
  // Profile at a few depths.
  for (int i : {5, 10, 20, 40}) {
    const double x = length * i / nx;
    EXPECT_NEAR(snaps[0][static_cast<size_t>(id(i, 0))], exact(x),
                0.05 * surf_exact)
        << "x = " << x;
  }
  // Far end still cold.
  EXPECT_NEAR(snaps[0][static_cast<size_t>(id(nx, 0))], 0.0, 1e-6);
}

// Energy balance under the flux: integral of rho_c*T equals q * t exactly
// (implicit Euler conserves the lumped heat content).
TEST(ConvergenceTest, ThermalFluxEnergyExact) {
  const int nx = 50;
  mesh::TriMesh m;
  for (int j = 0; j <= 1; ++j) {
    for (int i = 0; i <= nx; ++i) {
      m.add_node({5.0 * i / nx, 0.1 * j});
    }
  }
  auto id = [nx](int i, int j) { return j * (nx + 1) + i; };
  for (int i = 0; i < nx; ++i) {
    m.add_element(id(i, 0), id(i + 1, 0), id(i + 1, 1));
    m.add_element(id(i, 0), id(i + 1, 1), id(i, 1));
  }
  ThermalProblem prob(m, Analysis::kPlaneStress);
  prob.set_material({2.0, 3.0});
  prob.add_pulse({id(0, 0), id(0, 1), 7.0, 0.0, 10.0});
  const auto snaps = prob.integrate(0.01, 0.5, {0.5});

  std::vector<double> cap(static_cast<size_t>(m.num_nodes()), 0.0);
  for (int e = 0; e < m.num_elements(); ++e) {
    const ThermalElement te =
        thermal_matrices(m, e, 2.0, 3.0, Analysis::kPlaneStress, 1.0);
    for (int n : m.element(e).n) {
      cap[static_cast<size_t>(n)] += te.lumped_capacitance_per_node;
    }
  }
  double heat = 0.0;
  for (size_t i = 0; i < cap.size(); ++i) heat += cap[i] * snaps[0][i];
  EXPECT_NEAR(heat, 7.0 * 0.1 * 0.5, 1e-9);  // q * edge length * time
}

}  // namespace
}  // namespace feio::fem
