#include <algorithm>
#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "idlz/idlz.h"
#include "mesh/validate.h"
#include "mesh_helpers.h"
#include "ospl/ospl.h"
#include "scenarios/scenarios.h"

namespace feio::scenarios {
namespace {

using idlz::IdlzCase;
using idlz::IdlzResult;

TEST(SideNodesTest, RectangleSides) {
  const IdlzCase c = fig02_rectangle();  // k 1..6, l 1..9
  const IdlzResult r = idlz::run(c);
  const auto bottom = side_nodes(c, r, 0, idlz::Side::kParallelLow);
  ASSERT_EQ(bottom.size(), 6u);
  for (int n : bottom) EXPECT_NEAR(r.mesh.pos(n).y, 0.0, 1e-12);
  const auto left = side_nodes(c, r, 0, idlz::Side::kCrossLow);
  ASSERT_EQ(left.size(), 9u);
  for (int n : left) EXPECT_NEAR(r.mesh.pos(n).x, 0.0, 1e-12);
}

TEST(SideNodesTest, ValidAfterRenumbering) {
  IdlzCase c = fig02_rectangle();
  c.options.renumber_nodes = true;
  const IdlzResult r = idlz::run(c);
  for (int n : side_nodes(c, r, 0, idlz::Side::kParallelHigh)) {
    EXPECT_NEAR(r.mesh.pos(n).y, 8.0, 0.5);  // the arced top, near y = 8
  }
}

TEST(GeometryTest, GlassJointGradesTheMesh) {
  const IdlzResult r = idlz::run(fig01_glass_joint());
  EXPECT_TRUE(mesh_helpers::validate(r.mesh).ok());
  // The joint band reaches inward to r = 3; the plain glass stays at 4..5.
  const auto b = r.mesh.bounds();
  EXPECT_NEAR(b.lo.x, 3.0, 1e-9);
  EXPECT_NEAR(b.hi.x, 5.0, 1e-9);
  EXPECT_NEAR(b.hi.y, 7.0, 1e-9);
}

TEST(GeometryTest, ViewportTriangleCollapsesToPoint) {
  const IdlzCase c = fig07_dssv_viewport();
  const IdlzResult r = idlz::run(c);
  // The bevel subdivision's high cross side is the single apex node.
  const auto tip = side_nodes(c, r, 1, idlz::Side::kParallelHigh);
  ASSERT_EQ(tip.size(), 1u);
  EXPECT_NEAR(r.mesh.pos(tip[0]).x, 3.8, 1e-9);
  EXPECT_NEAR(r.mesh.pos(tip[0]).y, 1.2, 1e-9);
}

TEST(GeometryTest, CircularRingLiesInAnnulus) {
  const IdlzResult r = idlz::run(fig11_circular_ring());
  for (int n = 0; n < r.mesh.num_nodes(); ++n) {
    const double rad = r.mesh.pos(n).norm();
    EXPECT_GE(rad, 2.0 - 1e-9);
    EXPECT_LE(rad, 3.0 + 1e-9);
  }
}

TEST(GeometryTest, HatchCapOnSphere) {
  const IdlzCase c = fig09_dsrv_hatch();
  const IdlzResult r = idlz::run(c);
  // Every cap inner-surface node sits on the radius-10 sphere.
  for (int n : side_nodes(c, r, 1, idlz::Side::kCrossLow)) {
    EXPECT_NEAR(r.mesh.pos(n).norm(), 10.0, 1e-9);
  }
  for (int n : side_nodes(c, r, 1, idlz::Side::kCrossHigh)) {
    EXPECT_NEAR(r.mesh.pos(n).norm(), 11.2, 1e-9);
  }
}

TEST(GeometryTest, StiffenersAttachToCylinder) {
  const IdlzCase c = fig15_cylinder_closure(true);
  const IdlzResult r = idlz::run(c);
  ASSERT_EQ(c.subdivisions.size(), 5u);
  for (int sub = 2; sub < 5; ++sub) {
    for (int n : side_nodes(c, r, sub, idlz::Side::kCrossLow)) {
      EXPECT_NEAR(r.mesh.pos(n).x, 10.5, 1e-9);  // on the outer wall
    }
    for (int n : side_nodes(c, r, sub, idlz::Side::kCrossHigh)) {
      EXPECT_NEAR(r.mesh.pos(n).x, 11.5, 1e-9);  // stiffener tip
    }
  }
}

// ---- Analysis chains ------------------------------------------------------

TEST(AnalysisTest, Fig13HatchCompressive) {
  const AnalysisOutput out = fig13_analysis();
  ASSERT_EQ(out.fields.size(), 1u);
  const auto& eff = out.fields[0].values;
  // Effective stress is non-negative by construction and of order p*R/2t.
  const double peak = *std::max_element(eff.begin(), eff.end());
  for (double v : eff) EXPECT_GE(v, 0.0);
  EXPECT_GT(peak, 1000.0);
  EXPECT_LT(peak, 50000.0);
}

TEST(AnalysisTest, Fig14TemperaturesDiffuse) {
  const AnalysisOutput out = fig14_analysis();
  ASSERT_EQ(out.fields.size(), 2u);
  const auto& t2 = out.fields[0].values;
  const auto& t3 = out.fields[1].values;
  const double peak2 = *std::max_element(t2.begin(), t2.end());
  const double peak3 = *std::max_element(t3.begin(), t3.end());
  const double min2 = *std::min_element(t2.begin(), t2.end());
  // Pulse heated the flange above the 70-degree start.
  EXPECT_GT(peak2, 80.0);
  // Diffusion flattens the field between the snapshots.
  EXPECT_LT(peak3, peak2);
  EXPECT_GE(min2, 70.0 - 1e-6);
}

TEST(AnalysisTest, Fig15HoopCompression) {
  const AnalysisOutput out = fig15_analysis();
  const auto& hoop = out.fields[0].values;
  // External pressure -> hoop compression through the cylinder wall;
  // magnitude of order p*R/t = 500*10.25/0.5.
  const double most_negative = *std::min_element(hoop.begin(), hoop.end());
  EXPECT_LT(most_negative, -3000.0);
  EXPECT_GT(most_negative, -30000.0);
}

TEST(AnalysisTest, StiffenersReduceHoopStress) {
  // The design rationale for ring stiffeners, visible in our reproduction:
  // the stiffened cylinder carries less hoop compression.
  const AnalysisOutput stiff = fig15_analysis();
  const AnalysisOutput plain = fig16_analysis();
  const auto& hs = stiff.fields[0].values;   // circumferential
  const auto& hp = plain.fields[1].values;   // circumferential
  const double peak_s = std::abs(*std::min_element(hs.begin(), hs.end()));
  const double peak_p = std::abs(*std::min_element(hp.begin(), hp.end()));
  EXPECT_LT(peak_s, peak_p);
}

TEST(AnalysisTest, Fig17NormalizedStresses) {
  const AnalysisOutput out = fig17_analysis();
  ASSERT_EQ(out.fields.size(), 2u);
  // Unit pressure: stresses are O(1)..O(10), suiting the paper's 0.10
  // contour interval.
  for (const auto& f : out.fields) {
    const double lo = *std::min_element(f.values.begin(), f.values.end());
    const double hi = *std::max_element(f.values.begin(), f.values.end());
    EXPECT_GT(hi - lo, 0.1);
    EXPECT_LT(hi - lo, 50.0);
  }
  // Radial stress reaches -p on the pressurized face (within averaging).
  const auto& radial = out.fields[1].values;
  const double rmin = *std::min_element(radial.begin(), radial.end());
  EXPECT_LT(rmin, -0.5);
  EXPECT_GT(rmin, -4.0);
}

TEST(AnalysisTest, Fig18SphereMembraneStress) {
  const AnalysisOutput out = fig18_analysis();
  const auto& hoop = out.fields[0].values;
  // Away from the edge, a sphere under external pressure p carries
  // sigma ~ -p*R/(2t) = -1000*10/(2*0.5) = -10000.
  const double typical = -1000.0 * 10.05 / (2.0 * 0.5);
  const double most_negative = *std::min_element(hoop.begin(), hoop.end());
  EXPECT_LT(most_negative, 0.6 * typical);
  EXPECT_GT(most_negative, 2.5 * typical);
}

TEST(AnalysisTest, AxisymmetrySanity) {
  // Fields feed straight into OSPL within the paper's Table 1 limits.
  for (const AnalysisOutput& out :
       {fig13_analysis(), fig17_analysis(), fig18_analysis()}) {
    EXPECT_LE(out.idlz.mesh.num_nodes(), 800) << out.id;
    EXPECT_LE(out.idlz.mesh.num_elements(), 1000) << out.id;
    for (const auto& f : out.fields) {
      ospl::OsplCase c;
      c.mesh = out.idlz.mesh;
      c.values = f.values;
      c.title1 = out.title;
      const ospl::OsplResult r = ospl::run(c);
      EXPECT_FALSE(r.segments.empty()) << out.id << " " << f.name;
      EXPECT_FALSE(r.labels.accepted.empty()) << out.id << " " << f.name;
    }
  }
}

TEST(AnalysisTest, Fig13ContactSeatPartiallyBears) {
  const AnalysisOutput out = fig13_contact_analysis();
  ASSERT_EQ(out.fields.size(), 2u);
  const auto& reactions = out.fields[1].values;
  int bearing = 0;
  double total = 0.0;
  for (double r : reactions) {
    EXPECT_GE(r, 0.0);  // a seat can only push
    if (r > 0.0) {
      ++bearing;
      total += r;
    }
  }
  // Some rim nodes bear, some lift off — the "modified for contact" point:
  // 8 of the 12 seat nodes carry about 3.5e5 in total.
  EXPECT_EQ(bearing, 8);
  EXPECT_NEAR(total, 3.5e5, 0.05e5);
  // The stress field stays in the same regime as the bilateral fig13.
  const AnalysisOutput fixed = fig13_analysis();
  const double peak_contact = *std::max_element(
      out.fields[0].values.begin(), out.fields[0].values.end());
  const double peak_fixed = *std::max_element(
      fixed.fields[0].values.begin(), fixed.fields[0].values.end());
  EXPECT_NEAR(peak_contact, 6.98e3, 5.0);
  EXPECT_NEAR(peak_fixed, 7.07e3, 5.0);
}

TEST(AnalysisTest, Fig14ThermalStressFromTemperatures) {
  const AnalysisOutput out = fig14_thermal_stress_analysis();
  ASSERT_EQ(out.fields.size(), 1u);
  const double peak = *std::max_element(out.fields[0].values.begin(),
                                        out.fields[0].values.end());
  // Of order E*alpha*dT_gradient: tens to thousands of psi, not zero and
  // not the fully-constrained 2e4.
  EXPECT_GT(peak, 50.0);
  EXPECT_LT(peak, 2.0e4);
  EXPECT_FALSE(out.displacement.empty());
}

TEST(AnalysisTest, KirschStressConcentration) {
  // The analytic stress concentration at the top of the hole is 3.0 for an
  // infinite plate; the coarse O-grid lands within a few percent.
  const AnalysisOutput out = kirsch_analysis();
  const mesh::TriMesh& mesh = out.idlz.mesh;
  double scf = 0.0;
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    const geom::Vec2 p = mesh.pos(n);
    if (std::abs(p.x) < 1e-6 && std::abs(p.y - 1.0) < 1e-6) {
      scf = out.fields[0].values[static_cast<size_t>(n)] / 100.0;
    }
  }
  EXPECT_NEAR(scf, 3.0, 0.35);
  EXPECT_NEAR(scf, 2.99, 0.005);  // the value EXPERIMENTS.md quotes
  // The concentration is the global field maximum.
  const double peak = *std::max_element(out.fields[0].values.begin(),
                                        out.fields[0].values.end());
  EXPECT_NEAR(peak / 100.0, scf, 1e-9);
  // Far from the hole the field returns to the remote stress.
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    const geom::Vec2 p = mesh.pos(n);
    if (std::abs(p.x - 5.0) < 1e-6 && std::abs(p.y) < 1e-6) {
      EXPECT_NEAR(out.fields[0].values[static_cast<size_t>(n)] / 100.0, 1.0,
                  0.25);
    }
  }
}

// The field ranges EXPERIMENTS.md's figure table quotes, at the precision
// it quotes them. The paper prints no ranges; its anchors (interval 2500
// on Figure 13, labels 30..110 on Figure 14, interval 0.10 on Figure 17)
// are compared in that table.
TEST(AnalysisTest, FieldRangesMatchExperimentsTable) {
  struct Row {
    AnalysisOutput (*chain)();
    size_t field;
    double lo, hi, tol;
  };
  const Row rows[] = {
      {fig13_analysis, 0, 579.0, 7066.0, 0.5},
      {fig14_analysis, 0, 70.0, 170.0, 0.5},
      {fig14_analysis, 1, 70.0, 168.0, 0.5},
      {fig14_thermal_stress_analysis, 0, 8.0, 723.0, 0.5},
      {fig15_analysis, 0, -7770.0, -777.0, 0.5},
      {fig16_analysis, 1, -10838.0, -4824.0, 0.5},
      {fig17_analysis, 1, -1.85, -0.05, 0.005},
      {fig18_analysis, 0, -11300.0, 3200.0, 50.0},
  };
  for (const Row& row : rows) {
    const AnalysisOutput out = row.chain();
    const FieldOutput& f = out.fields[row.field];
    const auto [lo, hi] = std::minmax_element(f.values.begin(), f.values.end());
    EXPECT_NEAR(*lo, row.lo, row.tol) << out.id << " " << f.name;
    EXPECT_NEAR(*hi, row.hi, row.tol) << out.id << " " << f.name;
  }
  // Figure 17 at unit pressure: the automatic interval of the radial
  // field is the paper's 0.10; the meridional field gets 0.25.
  const AnalysisOutput joint = fig17_analysis();
  const std::pair<size_t, double> intervals[] = {{1, 0.10}, {0, 0.25}};
  for (const auto& [field, delta] : intervals) {
    const std::vector<double>& v = joint.fields[field].values;
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    EXPECT_DOUBLE_EQ(ospl::auto_interval(*lo, *hi), delta);
  }
}

// Ablation A3: the automatic interval against fixed ones on Figure 13's
// effective stress. The paper's plot reads "CONTOUR INTERVAL IS 2500" at
// its design load; the same Appendix D rule picks 500 at our 1000 psi.
TEST(AnalysisTest, Fig13AutomaticIntervalAgainstFixedOnes) {
  const AnalysisOutput out = fig13_analysis();
  ospl::OsplCase c;
  c.mesh = out.idlz.mesh;
  c.values = out.fields[0].values;
  const ospl::OsplResult automatic = ospl::run(c);
  EXPECT_EQ(automatic.delta, 500.0);  // paper: 2500 at its load
  EXPECT_EQ(automatic.levels.size(), 13u);  // paper: at most 20
  c.delta = 100.0;
  EXPECT_EQ(ospl::run(c).levels.size(), 65u);
  c.delta = 2500.0;
  EXPECT_EQ(ospl::run(c).levels.size(), 2u);
}

TEST(AnalysisTest, RenumberingHelpsAnalysisMeshes) {
  // The analyses run with NONUMB=1; verify it actually pays off on the
  // multi-subdivision hatch.
  const AnalysisOutput out = fig13_analysis();
  EXPECT_LE(out.idlz.renumbering.bandwidth_after,
            out.idlz.renumbering.bandwidth_before);
}

}  // namespace
}  // namespace feio::scenarios
