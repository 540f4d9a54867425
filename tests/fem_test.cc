#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "fem/assembly.h"
#include "fem/element.h"
#include "fem/material.h"
#include "fem/skyline.h"
#include "fem/solver.h"
#include "fem/stress.h"
#include "util/error.h"

namespace feio::fem {
namespace {

using geom::Vec2;

// ---- Materials ------------------------------------------------------------

TEST(MaterialTest, IsotropicPlaneStressD) {
  const double e = 200.0;
  const double nu = 0.3;
  const DMatrix d = constitutive(Material::isotropic(e, nu),
                                 Analysis::kPlaneStress);
  const double f = e / (1.0 - nu * nu);
  EXPECT_NEAR(d[0][0], f, 1e-9);
  EXPECT_NEAR(d[1][1], f, 1e-9);
  EXPECT_NEAR(d[0][1], nu * f, 1e-9);
  EXPECT_NEAR(d[2][0], 0.0, 1e-12);  // sigma33 = 0 in plane stress
  EXPECT_NEAR(d[3][3], e / (2.0 * (1.0 + nu)), 1e-9);
}

TEST(MaterialTest, IsotropicPlaneStrainD) {
  const double e = 100.0;
  const double nu = 0.25;
  const DMatrix d = constitutive(Material::isotropic(e, nu),
                                 Analysis::kPlaneStrain);
  const double f = e / ((1.0 + nu) * (1.0 - 2.0 * nu));
  EXPECT_NEAR(d[0][0], f * (1.0 - nu), 1e-9);
  EXPECT_NEAR(d[0][1], f * nu, 1e-9);
  // sigma33 couples: d[2][0] = f*nu gives sigma_z = nu*(sx+sy) behaviour.
  EXPECT_NEAR(d[2][0], f * nu, 1e-9);
}

TEST(MaterialTest, AxisymmetricEqualsPlaneStrainBlock) {
  const DMatrix a = constitutive(Material::isotropic(10.0, 0.2),
                                 Analysis::kAxisymmetric);
  const DMatrix b = constitutive(Material::isotropic(10.0, 0.2),
                                 Analysis::kPlaneStrain);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_NEAR(a[static_cast<size_t>(i)][static_cast<size_t>(j)],
                  b[static_cast<size_t>(i)][static_cast<size_t>(j)], 1e-9);
    }
  }
}

TEST(MaterialTest, OrthotropicDSymmetric) {
  const Material m = Material::orthotropic(1.5e6, 3.0e6, 6.0e6, 0.12, 0.10,
                                           0.20, 0.6e6);
  EXPECT_FALSE(m.is_isotropic());
  for (Analysis an : {Analysis::kPlaneStress, Analysis::kAxisymmetric}) {
    const DMatrix d = constitutive(m, an);
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        EXPECT_NEAR(d[static_cast<size_t>(i)][static_cast<size_t>(j)],
                    d[static_cast<size_t>(j)][static_cast<size_t>(i)], 1e-3);
      }
    }
    EXPECT_GT(d[0][0], 0.0);
    EXPECT_GT(d[1][1], 0.0);
  }
}

TEST(MaterialTest, IsotropicDetection) {
  EXPECT_TRUE(Material::isotropic(5.0, 0.3).is_isotropic());
}

TEST(MaterialTest, BadModulusThrows) {
  Material m = Material::isotropic(1.0, 0.3);
  m.e1 = -1.0;
  EXPECT_THROW(constitutive(m, Analysis::kPlaneStress), Error);
  m = Material::isotropic(1.0, 0.3);
  m.g12 = 0.0;
  EXPECT_THROW(constitutive(m, Analysis::kPlaneStress), Error);
}

// ---- Stress invariants ------------------------------------------------------

TEST(StressTest, VonMisesUniaxial) {
  EXPECT_NEAR((Stress{100, 0, 0, 0}).von_mises(), 100.0, 1e-12);
}

TEST(StressTest, VonMisesPureShear) {
  EXPECT_NEAR((Stress{0, 0, 0, 10}).von_mises(), 10.0 * std::sqrt(3.0),
              1e-12);
}

TEST(StressTest, VonMisesHydrostaticZero) {
  EXPECT_NEAR((Stress{5, 5, 5, 0}).von_mises(), 0.0, 1e-12);
}

TEST(StressTest, PrincipalStresses) {
  const auto p = Stress{3, 1, 0, 1}.principal();
  EXPECT_NEAR(p[0], 2.0 + std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(p[1], 2.0 - std::sqrt(2.0), 1e-12);
}

// ---- Element matrices -------------------------------------------------------

mesh::TriMesh one_triangle() {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  return m;
}

TEST(ElementTest, StiffnessSymmetric) {
  const mesh::TriMesh m = one_triangle();
  const DMatrix d = constitutive(Material::isotropic(100.0, 0.3),
                                 Analysis::kPlaneStress);
  const ElementMatrices em =
      cst_matrices(m, 0, d, Analysis::kPlaneStress, 1.0);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      EXPECT_NEAR(em.k[static_cast<size_t>(i)][static_cast<size_t>(j)],
                  em.k[static_cast<size_t>(j)][static_cast<size_t>(i)], 1e-9);
    }
  }
  EXPECT_DOUBLE_EQ(em.area, 0.5);
  EXPECT_DOUBLE_EQ(em.weight, 0.5);
}

TEST(ElementTest, RigidTranslationGivesNoForce) {
  const mesh::TriMesh m = one_triangle();
  const DMatrix d = constitutive(Material::isotropic(100.0, 0.3),
                                 Analysis::kPlaneStress);
  const ElementMatrices em =
      cst_matrices(m, 0, d, Analysis::kPlaneStress, 1.0);
  const std::array<double, 6> u{1, 2, 1, 2, 1, 2};  // uniform translation
  for (int i = 0; i < 6; ++i) {
    double f = 0.0;
    for (int j = 0; j < 6; ++j) {
      f += em.k[static_cast<size_t>(i)][static_cast<size_t>(j)] *
           u[static_cast<size_t>(j)];
    }
    EXPECT_NEAR(f, 0.0, 1e-9);
  }
}

TEST(ElementTest, RigidRotationGivesNoForce) {
  const mesh::TriMesh m = one_triangle();
  const DMatrix d = constitutive(Material::isotropic(100.0, 0.3),
                                 Analysis::kPlaneStress);
  const ElementMatrices em =
      cst_matrices(m, 0, d, Analysis::kPlaneStress, 1.0);
  // Infinitesimal rotation: u = -w*y, v = +w*x.
  std::array<double, 6> u{};
  for (int n = 0; n < 3; ++n) {
    u[static_cast<size_t>(2 * n)] = -0.01 * m.pos(n).y;
    u[static_cast<size_t>(2 * n + 1)] = 0.01 * m.pos(n).x;
  }
  for (int i = 0; i < 6; ++i) {
    double f = 0.0;
    for (int j = 0; j < 6; ++j) {
      f += em.k[static_cast<size_t>(i)][static_cast<size_t>(j)] *
           u[static_cast<size_t>(j)];
    }
    EXPECT_NEAR(f, 0.0, 1e-9);
  }
}

TEST(ElementTest, AxisymRadialTranslationIsNotRigid) {
  mesh::TriMesh m;
  m.add_node({2, 0});
  m.add_node({3, 0});
  m.add_node({2, 1});
  m.add_element(0, 1, 2);
  const DMatrix d = constitutive(Material::isotropic(100.0, 0.3),
                                 Analysis::kAxisymmetric);
  const ElementMatrices em =
      cst_matrices(m, 0, d, Analysis::kAxisymmetric, 1.0);
  // Uniform radial motion strains the hoop direction.
  const std::array<double, 6> u{1, 0, 1, 0, 1, 0};
  double energy = 0.0;
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      energy += u[static_cast<size_t>(i)] *
                em.k[static_cast<size_t>(i)][static_cast<size_t>(j)] *
                u[static_cast<size_t>(j)];
    }
  }
  EXPECT_GT(energy, 1.0);
}

TEST(ElementTest, AxisymAxialTranslationIsRigid) {
  mesh::TriMesh m;
  m.add_node({2, 0});
  m.add_node({3, 0});
  m.add_node({2, 1});
  m.add_element(0, 1, 2);
  const DMatrix d = constitutive(Material::isotropic(100.0, 0.3),
                                 Analysis::kAxisymmetric);
  const ElementMatrices em =
      cst_matrices(m, 0, d, Analysis::kAxisymmetric, 1.0);
  const std::array<double, 6> u{0, 1, 0, 1, 0, 1};
  for (int i = 0; i < 6; ++i) {
    double f = 0.0;
    for (int j = 0; j < 6; ++j) {
      f += em.k[static_cast<size_t>(i)][static_cast<size_t>(j)] *
           u[static_cast<size_t>(j)];
    }
    EXPECT_NEAR(f, 0.0, 1e-9);
  }
}

TEST(ElementTest, DegenerateElementThrows) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 1});
  m.add_node({2, 2});
  m.add_element(0, 1, 2);
  const DMatrix d = constitutive(Material::isotropic(1.0, 0.3),
                                 Analysis::kPlaneStress);
  EXPECT_THROW(cst_matrices(m, 0, d, Analysis::kPlaneStress, 1.0), Error);
}

TEST(ElementTest, CstStressLinearField) {
  const mesh::TriMesh m = one_triangle();
  const double e = 100.0;
  const double nu = 0.0;  // decouple for an easy hand check
  const DMatrix d = constitutive(Material::isotropic(e, nu),
                                 Analysis::kPlaneStress);
  // u = 0.01 x -> eps_x = 0.01, sigma_x = 1.0.
  std::array<double, 6> u{};
  for (int n = 0; n < 3; ++n) {
    u[static_cast<size_t>(2 * n)] = 0.01 * m.pos(n).x;
  }
  const Stress s = cst_stress(m, 0, d, Analysis::kPlaneStress, u);
  EXPECT_NEAR(s.s11, 1.0, 1e-12);
  EXPECT_NEAR(s.s22, 0.0, 1e-12);
  EXPECT_NEAR(s.s12, 0.0, 1e-12);
}

// ---- Patch test --------------------------------------------------------------

// The CST patch test: impose a linear displacement field on the boundary of
// an irregular patch; interior nodes must reproduce the field exactly and
// the stress must be uniform.
TEST(PatchTest, LinearFieldReproducedExactly) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({4, 0});
  m.add_node({5, 4});
  m.add_node({-1, 3});
  m.add_node({1.7, 1.4});  // interior, off-centre
  m.add_element(0, 1, 4);
  m.add_element(1, 2, 4);
  m.add_element(2, 3, 4);
  m.add_element(3, 0, 4);

  auto ux = [](Vec2 p) { return 1e-3 * (2.0 * p.x + 0.5 * p.y); };
  auto uy = [](Vec2 p) { return 1e-3 * (0.3 * p.x - 1.2 * p.y); };

  StaticProblem prob(m, Analysis::kPlaneStress);
  prob.set_material(Material::isotropic(1000.0, 0.3));
  for (int n = 0; n < 4; ++n) {
    prob.fix(n, true, true, ux(m.pos(n)), uy(m.pos(n)));
  }
  const StaticSolution sol = solve(prob, RunOptions{});
  EXPECT_NEAR(sol.at(4).x, ux(m.pos(4)), 1e-12);
  EXPECT_NEAR(sol.at(4).y, uy(m.pos(4)), 1e-12);

  const auto stresses = element_stresses(prob, sol);
  for (size_t e = 1; e < stresses.size(); ++e) {
    EXPECT_NEAR(stresses[e].s11, stresses[0].s11, 1e-9);
    EXPECT_NEAR(stresses[e].s22, stresses[0].s22, 1e-9);
    EXPECT_NEAR(stresses[e].s12, stresses[0].s12, 1e-9);
  }
}

// ---- Uniaxial bar --------------------------------------------------------------

TEST(BarTest, UniaxialTension) {
  // 4x1 bar, E=1000, pulled with traction sigma=10 on the right edge.
  mesh::TriMesh m;
  const int nx = 4;
  for (int j = 0; j <= 1; ++j) {
    for (int i = 0; i <= nx; ++i) {
      m.add_node({static_cast<double>(i), static_cast<double>(j)});
    }
  }
  auto id = [nx](int i, int j) { return j * (nx + 1) + i; };
  for (int i = 0; i < nx; ++i) {
    m.add_element(id(i, 0), id(i + 1, 0), id(i + 1, 1));
    m.add_element(id(i, 0), id(i + 1, 1), id(i, 1));
  }

  const double e = 1000.0;
  const double sigma = 10.0;
  StaticProblem prob(m, Analysis::kPlaneStress);
  prob.set_material(Material::isotropic(e, 0.0));
  prob.fix(id(0, 0), true, true);
  prob.fix(id(0, 1), true, false);
  // Traction on the right edge: walk it so the left normal points +x.
  prob.edge_pressure(id(nx, 0), id(nx, 1), -sigma);  // left normal is -x
  const StaticSolution sol = solve(prob, RunOptions{});

  // u(x) = sigma x / E.
  for (int i = 0; i <= nx; ++i) {
    EXPECT_NEAR(sol.at(id(i, 0)).x, sigma * i / e, 1e-9);
  }
  const auto nodal = nodal_stresses(m, element_stresses(prob, sol));
  for (const Stress& s : nodal) {
    EXPECT_NEAR(s.s11, sigma, 1e-9);
    EXPECT_NEAR(s.s22, 0.0, 1e-9);
  }
  // The effective stress field equals sigma everywhere.
  const auto eff = component(nodal, StressComponent::kEffective);
  for (double v : eff) EXPECT_NEAR(v, sigma, 1e-9);
}

TEST(BarTest, PoissonContraction) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({2, 0});
  m.add_node({2, 1});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  m.add_element(0, 2, 3);
  StaticProblem prob(m, Analysis::kPlaneStress);
  prob.set_material(Material::isotropic(100.0, 0.25));
  prob.fix(0, true, true);
  prob.fix(3, true, false);
  prob.edge_pressure(1, 2, -5.0);
  const StaticSolution sol = solve(prob, RunOptions{});
  // eps_y = -nu * sigma / E.
  EXPECT_NEAR(sol.at(3).y - sol.at(0).y, -0.25 * 5.0 / 100.0, 1e-9);
}

// ---- Lamé thick-walled cylinder (axisymmetric) ---------------------------------

TEST(LameTest, ThickCylinderHoopStress) {
  // Inner radius 1, outer 2, internal pressure 10, axially restrained
  // (plane strain). Lame: sigma_theta(r) = A + B/r^2, sigma_r(r) = A - B/r^2
  // with A = p ri^2/(ro^2-ri^2), B = A ro^2.
  const double ri = 1.0;
  const double ro = 2.0;
  const double p = 10.0;
  const int nr = 16;
  const int nz = 2;
  mesh::TriMesh m;
  for (int j = 0; j <= nz; ++j) {
    for (int i = 0; i <= nr; ++i) {
      m.add_node({ri + (ro - ri) * i / nr, 0.1 * j});
    }
  }
  auto id = [nr](int i, int j) { return j * (nr + 1) + i; };
  for (int j = 0; j < nz; ++j) {
    for (int i = 0; i < nr; ++i) {
      m.add_element(id(i, j), id(i + 1, j), id(i + 1, j + 1));
      m.add_element(id(i, j), id(i + 1, j + 1), id(i, j + 1));
    }
  }

  StaticProblem prob(m, Analysis::kAxisymmetric);
  prob.set_material(Material::isotropic(1000.0, 0.3));
  for (int n = 0; n < m.num_nodes(); ++n) prob.fix(n, false, true);
  // Internal pressure: inner surface edges, normal pointing +r (into the
  // material). Inner edges run along +z in element order... walk j upward
  // and let the element orientation decide: n1=(0,j+1), n2=(0,j) has left
  // normal +r.
  for (int j = 0; j < nz; ++j) {
    prob.edge_pressure(id(0, j + 1), id(0, j), p);
  }
  const StaticSolution sol = solve(prob, RunOptions{});
  const auto nodal = nodal_stresses(m, element_stresses(prob, sol));

  const double a = p * ri * ri / (ro * ro - ri * ri);
  const double b = a * ro * ro;
  // Hoop stress at inner and outer walls (nodal averages carry O(h) error).
  const double hoop_inner = nodal[static_cast<size_t>(id(0, 1))].s33;
  const double hoop_outer = nodal[static_cast<size_t>(id(nr, 1))].s33;
  EXPECT_NEAR(hoop_inner, a + b / (ri * ri), 0.08 * (a + b / (ri * ri)));
  EXPECT_NEAR(hoop_outer, a + b / (ro * ro), 0.08 * (a + b / (ri * ri)));
  // Radial stress: -p at the bore, ~0 at the free outer wall.
  EXPECT_NEAR(nodal[static_cast<size_t>(id(0, 1))].s11, -p, 0.15 * p);
  EXPECT_NEAR(nodal[static_cast<size_t>(id(nr, 1))].s11, 0.0, 0.1 * p);
  // Radial displacement at the bore: u = ri/E * (A(1-2nu)(1+nu) +
  // B(1+nu)/ri^2) for plane strain.
  const double nu = 0.3;
  const double e_mod = 1000.0;
  const double u_exact =
      ri / e_mod * (a * (1 - 2 * nu) * (1 + nu) + b * (1 + nu) / (ri * ri));
  EXPECT_NEAR(sol.at(id(0, 1)).x, u_exact, 0.03 * u_exact);
}

TEST(LameTest, HoopStiffOrthotropyReducesExpansion) {
  // Same external-pressure ring, isotropic vs hoop-stiff orthotropic: the
  // stiff hoop direction must reduce the radial displacement.
  auto bore_displacement = [](const Material& mat) {
    const int nr = 8;
    mesh::TriMesh m;
    for (int j = 0; j <= 1; ++j) {
      for (int i = 0; i <= nr; ++i) {
        m.add_node({2.0 + 0.5 * i / nr, 0.1 * j});
      }
    }
    auto id = [nr](int i, int j) { return j * (nr + 1) + i; };
    for (int i = 0; i < nr; ++i) {
      m.add_element(id(i, 0), id(i + 1, 0), id(i + 1, 1));
      m.add_element(id(i, 0), id(i + 1, 1), id(i, 1));
    }
    StaticProblem prob(m, Analysis::kAxisymmetric);
    prob.set_material(mat);
    for (int n = 0; n < m.num_nodes(); ++n) prob.fix(n, false, true);
    // External pressure on the outer face pushing inward (-r): walk the
    // edge upward so the left normal points -x.
    prob.edge_pressure(id(nr, 0), id(nr, 1), 100.0);
    const StaticSolution sol = solve(prob, RunOptions{});
    return sol.at(id(0, 0)).x;  // negative: ring shrinks
  };
  const double iso = bore_displacement(Material::isotropic(1.0e6, 0.2));
  const double ortho = bore_displacement(Material::orthotropic(
      1.0e6, 1.0e6, 6.0e6, 0.2, 0.05, 0.05, 0.4e6));
  EXPECT_LT(iso, 0.0);
  EXPECT_LT(ortho, 0.0);
  EXPECT_GT(ortho, iso);  // less shrinkage with the stiff hoop
  EXPECT_LT(std::abs(ortho), 0.5 * std::abs(iso));
}

// ---- Assembly / loads -----------------------------------------------------------

TEST(AssemblyTest, PressureTotalForcePlane) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({2, 0});
  m.add_node({0, 2});
  m.add_element(0, 1, 2);
  StaticProblem prob(m, Analysis::kPlaneStress, 3.0);  // thickness 3
  prob.set_material(Material::isotropic(1.0, 0.0));
  prob.fix(2, true, true);
  prob.edge_pressure(0, 1, 7.0);  // length 2, left normal +y
  SkylineMatrix k(prob.dof_skyline_lows());
  std::vector<double> rhs;
  prob.assemble(k, rhs);
  // Total applied force = p * L * t = 42, all in +y, split evenly.
  EXPECT_NEAR(rhs[1], 21.0, 1e-12);
  EXPECT_NEAR(rhs[3], 21.0, 1e-12);
  EXPECT_NEAR(rhs[0], 0.0, 1e-12);
}

TEST(AssemblyTest, AxisymPressureWeightsByRadius) {
  mesh::TriMesh m;
  m.add_node({1, 0});
  m.add_node({3, 0});
  m.add_node({1, 2});
  m.add_element(0, 1, 2);
  StaticProblem prob(m, Analysis::kAxisymmetric);
  prob.set_material(Material::isotropic(1.0, 0.0));
  prob.fix(2, true, true);
  prob.edge_pressure(0, 1, 1.0);
  SkylineMatrix k(prob.dof_skyline_lows());
  std::vector<double> rhs;
  prob.assemble(k, rhs);
  // Total force = p * 2*pi*rbar * L = 2*pi*2*2; the outer node gets more.
  EXPECT_NEAR(rhs[1] + rhs[3], 2.0 * M_PI * 2.0 * 2.0, 1e-9);
  EXPECT_GT(rhs[3], rhs[1]);
}

TEST(AssemblyTest, NoConstraintsThrows) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  StaticProblem prob(m, Analysis::kPlaneStress);
  SkylineMatrix k(prob.dof_skyline_lows());
  std::vector<double> rhs;
  EXPECT_THROW(prob.assemble(k, rhs), Error);
}

TEST(AssemblyTest, UnderConstrainedSingular) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  StaticProblem prob(m, Analysis::kPlaneStress);
  prob.set_material(Material::isotropic(1.0, 0.3));
  prob.fix(0, true, true);  // rotation about node 0 remains free
  EXPECT_THROW(solve(prob, RunOptions{}), Error);
}

TEST(AssemblyTest, PerElementMaterials) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({1, 1});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  m.add_element(0, 2, 3);
  StaticProblem prob(m, Analysis::kPlaneStress);
  prob.set_material(Material::isotropic(100.0, 0.3));
  prob.set_element_material(1, Material::isotropic(777.0, 0.1));
  EXPECT_DOUBLE_EQ(prob.material_of(0).e1, 100.0);
  EXPECT_DOUBLE_EQ(prob.material_of(1).e1, 777.0);
}

// Assembly builds D once per run of elements sharing a material object:
// an element material between runs of the default still gets its own D,
// the stiffness is bit for bit the per-element sum, and an inadmissible
// element material still throws, in assembly and in stress recovery.
TEST(AssemblyTest, SharedMaterialsAssembleAsPerElementD) {
  mesh::TriMesh m;
  for (int j = 0; j < 2; ++j) {
    for (int i = 0; i < 3; ++i) {
      m.add_node({static_cast<double>(i), static_cast<double>(j)});
    }
  }
  m.add_element(0, 1, 4);
  m.add_element(0, 4, 3);
  m.add_element(1, 2, 5);
  m.add_element(1, 5, 4);
  StaticProblem prob(m, Analysis::kPlaneStrain);
  prob.set_material(Material::isotropic(100.0, 0.3));
  prob.set_element_material(2, Material::orthotropic(50, 80, 60, 0.2, 0.25,
                                                     0.3, 20));
  SkylineMatrix k(prob.dof_skyline_lows());
  std::vector<double> rhs;
  prob.assemble_unconstrained(k, rhs);
  std::vector<std::vector<double>> want(12, std::vector<double>(12, 0.0));
  for (int e = 0; e < m.num_elements(); ++e) {
    const ElementMatrices em = cst_matrices(
        m, e, constitutive(prob.material_of(e), Analysis::kPlaneStrain),
        Analysis::kPlaneStrain, 1.0);
    const auto& n = m.element(e).n;
    for (int r = 0; r < 6; ++r) {
      for (int c = 0; c <= r; ++c) {
        const int i = 2 * n[static_cast<size_t>(r / 2)] + r % 2;
        const int j = 2 * n[static_cast<size_t>(c / 2)] + c % 2;
        want[static_cast<size_t>(std::max(i, j))]
            [static_cast<size_t>(std::min(i, j))] +=
            em.k[static_cast<size_t>(r)][static_cast<size_t>(c)];
      }
    }
  }
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j <= i; ++j) {
      EXPECT_EQ(k.get(i, j),
                want[static_cast<size_t>(i)][static_cast<size_t>(j)])
          << i << "," << j;
    }
  }

  Material bad = Material::isotropic(100.0, 0.3);
  bad.g12 = -1.0;
  prob.set_element_material(2, bad);
  SkylineMatrix k2(prob.dof_skyline_lows());
  EXPECT_THROW(prob.assemble_unconstrained(k2, rhs), Error);
  StaticSolution u;
  u.displacement.assign(6, Vec2{0.0, 0.0});
  EXPECT_THROW(element_stresses(prob, u), Error);
}

TEST(StressRecoveryTest, NodalAverageIsAreaWeighted) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({2, 0});
  m.add_node({0, 2});   // element 0: area 2
  m.add_node({-1, 0});  // element 1 (0,3,2... pick): area 1
  m.add_element(0, 1, 2);
  m.add_element(0, 2, 3);
  std::vector<Stress> per_elem{{30, 0, 0, 0}, {12, 0, 0, 0}};
  const auto nodal = nodal_stresses(m, per_elem);
  // Node 0 belongs to both: (2*30 + 1*12)/3 = 24.
  EXPECT_NEAR(nodal[0].s11, 24.0, 1e-12);
  EXPECT_NEAR(nodal[1].s11, 30.0, 1e-12);
  EXPECT_NEAR(nodal[3].s11, 12.0, 1e-12);
}

}  // namespace
}  // namespace feio::fem
