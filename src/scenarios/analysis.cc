// The full IDLZ -> FEM -> nodal-field chains behind Figures 13-18.
#include <cmath>
#include <functional>
#include <set>

#include "fem/contact.h"
#include "fem/solver.h"
#include "fem/stress.h"
#include "fem/thermal.h"
#include "mesh/topology.h"
#include "scenarios/scenarios.h"
#include "util/error.h"

namespace feio::scenarios {
namespace {

using geom::Vec2;
using idlz::IdlzCase;
using idlz::IdlzResult;

IdlzResult idealize(IdlzCase c) {
  c.options.renumber_nodes = true;  // narrow envelope for the solver
  return idlz::run(c);
}

// Applies external pressure `p` (pushing into the material) on every
// boundary edge whose two end nodes satisfy `on_surface`. Edge direction is
// taken from the adjacent CCW element so the load points inward.
void external_pressure(fem::StaticProblem& prob, const mesh::TriMesh& mesh,
                       double p,
                       const std::function<bool(Vec2)>& on_surface) {
  const mesh::Topology topo(mesh);
  int applied = 0;
  for (const mesh::Edge& e : topo.boundary_edges()) {
    if (!on_surface(mesh.pos(e.a)) || !on_surface(mesh.pos(e.b))) continue;
    const std::vector<int> elems = topo.edge_elements(e);
    FEIO_ASSERT(elems.size() == 1);
    const mesh::Element& el = mesh.element(elems[0]);
    // Find the directed order of the edge within the element.
    int a = e.a;
    int b = e.b;
    for (int k = 0; k < 3; ++k) {
      if (el.n[static_cast<size_t>(k)] == e.b &&
          el.n[static_cast<size_t>((k + 1) % 3)] == e.a) {
        a = e.b;
        b = e.a;
        break;
      }
    }
    // For a CCW element the interior lies left of a->b, so a positive
    // pressure along the left normal pushes inward: external pressure.
    prob.edge_pressure(a, b, p);
    ++applied;
  }
  FEIO_REQUIRE(applied > 0, "pressure predicate matched no boundary edges");
}

void fix_where(fem::StaticProblem& prob, const mesh::TriMesh& mesh, bool x,
               bool y, const std::function<bool(Vec2)>& pred) {
  int fixed = 0;
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    if (pred(mesh.pos(n))) {
      prob.fix(n, x, y);
      ++fixed;
    }
  }
  FEIO_REQUIRE(fixed > 0, "constraint predicate matched no nodes");
}

FieldOutput make_field(std::string name, std::vector<double> values,
                       double delta = 0.0) {
  FieldOutput f;
  f.name = std::move(name);
  f.values = std::move(values);
  f.suggested_delta = delta;
  return f;
}

}  // namespace

AnalysisOutput fig13_analysis() {
  AnalysisOutput out;
  out.id = "fig13";
  out.title = "DSSV BOTTOM HATCH";
  const IdlzCase c = fig09_dsrv_hatch();
  out.idlz = idealize(c);
  const mesh::TriMesh& mesh = out.idlz.mesh;

  fem::StaticProblem prob(mesh, fem::Analysis::kAxisymmetric);
  prob.set_material(fem::Material::isotropic(30.0e6, 0.30));  // steel hatch

  // Seat support: the rim's bottom row carries the hatch axially.
  for (int n : side_nodes(c, out.idlz, 0, idlz::Side::kParallelLow)) {
    prob.fix(n, false, true);
  }
  // Axis of revolution: no radial motion.
  fix_where(prob, mesh, true, false,
            [](Vec2 p) { return std::abs(p.x) < 1e-9; });
  // Diving pressure on the outer cap surface (radius 11.2 about origin).
  external_pressure(prob, mesh, 1000.0, [](Vec2 p) {
    return std::abs(p.norm() - 11.2) < 1e-6;
  });

  const fem::StaticSolution sol = fem::solve(prob, RunOptions{});
  out.displacement = sol.displacement;
  out.fields.push_back(make_field(
      "EFFECTIVE STRESS",
      fem::nodal_field(prob, sol, fem::StressComponent::kEffective)));
  return out;
}

AnalysisOutput fig13_contact_analysis() {
  AnalysisOutput out;
  out.id = "fig13c";
  out.title = "DSSV BOTTOM HATCH MODIFIED FOR CONTACT";
  const IdlzCase c = fig09_dsrv_hatch();
  out.idlz = idealize(c);
  const mesh::TriMesh& mesh = out.idlz.mesh;

  fem::StaticProblem prob(mesh, fem::Analysis::kAxisymmetric);
  prob.set_material(fem::Material::isotropic(30.0e6, 0.30));
  fix_where(prob, mesh, true, false,
            [](Vec2 p) { return std::abs(p.x) < 1e-9; });
  external_pressure(prob, mesh, 1000.0, [](Vec2 p) {
    return std::abs(p.norm() - 11.2) < 1e-6;
  });

  // The seat: unilateral supports under the rim's bottom row.
  std::vector<fem::ContactSupport> seat;
  for (int n : side_nodes(c, out.idlz, 0, idlz::Side::kParallelLow)) {
    seat.push_back({n, 0.0});
  }
  const fem::ContactResult cr = fem::solve_with_contact(prob, seat);
  out.displacement = cr.solution.displacement;
  out.fields.push_back(make_field(
      "EFFECTIVE STRESS",
      fem::nodal_field(prob, cr.solution,
                       fem::StressComponent::kEffective)));

  // Seat report as a nodal field: reaction where bearing, 0 elsewhere.
  std::vector<double> reactions(static_cast<size_t>(mesh.num_nodes()), 0.0);
  for (size_t s = 0; s < seat.size(); ++s) {
    reactions[static_cast<size_t>(seat[s].node)] = cr.reaction[s];
  }
  out.fields.push_back(make_field("SEAT REACTION", std::move(reactions)));
  return out;
}

AnalysisOutput fig14_analysis() {
  AnalysisOutput out;
  out.id = "fig14";
  out.title = "T-BEAM EXPOSED TO A THERMAL RADIATION PULSE";
  const IdlzCase c = fig14_tee_beam();
  out.idlz = idealize(c);
  const mesh::TriMesh& mesh = out.idlz.mesh;

  fem::ThermalProblem prob(mesh, fem::Analysis::kPlaneStress);
  prob.set_material(fem::ThermalMaterial{0.25, 1.0});
  prob.set_initial_temperature(70.0);

  // One-second radiation pulse on the flange's exposed (top) face.
  const std::vector<int> top =
      side_nodes(c, out.idlz, 1, idlz::Side::kParallelHigh);
  for (size_t i = 0; i + 1 < top.size(); ++i) {
    prob.add_pulse(fem::FluxPulse{top[i], top[i + 1], 60.0, 0.0, 1.0});
  }

  const auto snaps = prob.integrate(0.02, 3.0, {2.0, 3.0});
  out.fields.push_back(
      make_field("TEMPERATURE, TIME = 2 SEC", snaps[0], 10.0));
  out.fields.push_back(
      make_field("TEMPERATURE, TIME = 3 SEC", snaps[1], 10.0));
  return out;
}

AnalysisOutput fig14_thermal_stress_analysis() {
  AnalysisOutput out;
  out.id = "fig14s";
  out.title = "THERMAL STRESS IN T-BEAM, TIME = 2 SEC";
  const AnalysisOutput thermal = fig14_analysis();
  out.idlz = thermal.idlz;
  const mesh::TriMesh& mesh = out.idlz.mesh;

  fem::StaticProblem prob(mesh, fem::Analysis::kPlaneStress);
  prob.set_material(fem::Material::isotropic(30.0e6, 0.30));  // steel Tee
  // Symmetry plane x = 0: no lateral motion; one axial anchor.
  int anchored = 0;
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    if (std::abs(mesh.pos(n).x) < 1e-9) {
      prob.fix(n, true, anchored == 0);
      ++anchored;
    }
  }
  FEIO_REQUIRE(anchored > 0, "symmetry plane not found");
  prob.set_temperature_load(thermal.fields[0].values, 6.5e-6, 70.0);

  const fem::StaticSolution sol = fem::solve(prob, RunOptions{});
  out.displacement = sol.displacement;
  out.fields.push_back(make_field(
      "EFFECTIVE THERMAL STRESS",
      fem::nodal_field(prob, sol, fem::StressComponent::kEffective)));
  return out;
}

namespace {

AnalysisOutput cylinder_closure_analysis(bool stiffened) {
  AnalysisOutput out;
  out.id = stiffened ? "fig15" : "fig16";
  out.title = stiffened
                  ? "GRP RING-STIFFENED CYLINDER AND END CLOSURE"
                  : "UNSTIFFENED CYLINDER AND END CLOSURE";
  const IdlzCase c = fig15_cylinder_closure(stiffened);
  out.idlz = idealize(c);
  const mesh::TriMesh& mesh = out.idlz.mesh;

  fem::StaticProblem prob(mesh, fem::Analysis::kAxisymmetric);
  // Glass-reinforced plastic: hoop-stiff filament winding.
  const fem::Material grp = fem::Material::orthotropic(
      1.5e6, 3.0e6, 6.0e6, 0.12, 0.10, 0.20, 0.6e6);
  const fem::Material titanium = fem::Material::isotropic(16.5e6, 0.31);
  prob.set_material(grp);
  for (int e : out.idlz.subdivision_elements[1]) {  // the closure
    prob.set_element_material(e, titanium);
  }

  // Mid-bay symmetry plane at z = 0; axis of revolution at r = 0.
  fix_where(prob, mesh, false, true,
            [](Vec2 p) { return std::abs(p.y) < 1e-9; });
  fix_where(prob, mesh, true, false,
            [](Vec2 p) { return std::abs(p.x) < 1e-9; });

  // External hydrostatic pressure on the outer wall and dome. (Stiffener
  // faces are left unloaded — a small understatement of total load noted
  // in DESIGN.md.)
  const Vec2 dome_center{0.0, 14.0};
  external_pressure(prob, mesh, 500.0, [dome_center](Vec2 p) {
    if (p.y <= 14.0 + 1e-9) return std::abs(p.x - 10.5) < 1e-6;
    return std::abs((p - dome_center).norm() - 10.5) < 1e-6;
  });

  const fem::StaticSolution sol = fem::solve(prob, RunOptions{});
  out.displacement = sol.displacement;
  if (stiffened) {
    out.fields.push_back(make_field(
        "CIRCUMFERENTIAL STRESS",
        fem::nodal_field(prob, sol,
                         fem::StressComponent::kCircumferential)));
    out.fields.push_back(make_field(
        "SHEAR STRESS",
        fem::nodal_field(prob, sol, fem::StressComponent::kShear)));
  } else {
    out.fields.push_back(make_field(
        "EFFECTIVE STRESS",
        fem::nodal_field(prob, sol, fem::StressComponent::kEffective)));
    out.fields.push_back(make_field(
        "CIRCUMFERENTIAL STRESS",
        fem::nodal_field(prob, sol,
                         fem::StressComponent::kCircumferential)));
  }
  return out;
}

}  // namespace

AnalysisOutput fig15_analysis() { return cylinder_closure_analysis(true); }
AnalysisOutput fig16_analysis() { return cylinder_closure_analysis(false); }

AnalysisOutput fig17_analysis() {
  AnalysisOutput out;
  out.id = "fig17";
  out.title = "INTERNALLY REINFORCED GLASS JOINT";
  const IdlzCase c = fig01_glass_joint();
  out.idlz = idealize(c);
  const mesh::TriMesh& mesh = out.idlz.mesh;

  fem::StaticProblem prob(mesh, fem::Analysis::kAxisymmetric);
  const fem::Material glass = fem::Material::isotropic(9.5e6, 0.22);
  const fem::Material steel = fem::Material::isotropic(30.0e6, 0.30);
  prob.set_material(glass);
  // The reinforcement ring: material reaching inside the glass wall.
  for (int e = 0; e < mesh.num_elements(); ++e) {
    const auto corners = mesh.corners(e);
    const double rbar = (corners[0].x + corners[1].x + corners[2].x) / 3.0;
    if (rbar < 3.98) prob.set_element_material(e, steel);
  }

  // The joint continues into glass cylinders above and below: both cut
  // planes stay plane.
  for (int n : side_nodes(c, out.idlz, 0, idlz::Side::kParallelLow)) {
    prob.fix(n, false, true);
  }
  for (int n : side_nodes(c, out.idlz, 4, idlz::Side::kParallelHigh)) {
    prob.fix(n, false, true);
  }
  // Unit external pressure: stresses come out normalized by p, matching
  // the paper's 0.10 contour interval on this figure.
  external_pressure(prob, mesh, 1.0, [](Vec2 p) {
    return std::abs(p.x - 5.0) < 1e-6;
  });

  const fem::StaticSolution sol = fem::solve(prob, RunOptions{});
  out.displacement = sol.displacement;
  out.fields.push_back(make_field(
      "MERIDIONAL STRESS",
      fem::nodal_field(prob, sol, fem::StressComponent::kMeridional)));
  out.fields.push_back(make_field(
      "RADIAL STRESS",
      fem::nodal_field(prob, sol, fem::StressComponent::kRadial)));
  return out;
}

AnalysisOutput fig18_analysis() {
  AnalysisOutput out;
  out.id = "fig18";
  out.title = "NEW HATCH (GLASS SPHERE)";
  const IdlzCase c = fig18_sphere_hatch();
  out.idlz = idealize(c);
  const mesh::TriMesh& mesh = out.idlz.mesh;

  fem::StaticProblem prob(mesh, fem::Analysis::kAxisymmetric);
  prob.set_material(fem::Material::isotropic(9.5e6, 0.22));  // glass

  // Seat ring at the 15-degree latitude edge; axis nodes radially fixed.
  for (int n : side_nodes(c, out.idlz, 0, idlz::Side::kParallelLow)) {
    prob.fix(n, false, true);
  }
  fix_where(prob, mesh, true, false,
            [](Vec2 p) { return std::abs(p.x) < 1e-9; });
  external_pressure(prob, mesh, 1000.0, [](Vec2 p) {
    return std::abs(p.norm() - 10.3) < 1e-6;
  });

  const fem::StaticSolution sol = fem::solve(prob, RunOptions{});
  out.displacement = sol.displacement;
  out.fields.push_back(make_field(
      "CIRCUMFERENTIAL STRESS",
      fem::nodal_field(prob, sol, fem::StressComponent::kCircumferential)));
  out.fields.push_back(make_field(
      "EFFECTIVE STRESS",
      fem::nodal_field(prob, sol, fem::StressComponent::kEffective)));
  return out;
}

AnalysisOutput kirsch_analysis() {
  AnalysisOutput out;
  out.id = "kirsch";
  out.title = "QUARTER PLATE WITH CIRCULAR HOLE, REMOTE TENSION";
  const IdlzCase c = kirsch_plate();
  out.idlz = idealize(c);
  const mesh::TriMesh& mesh = out.idlz.mesh;

  const double sigma = 100.0;
  fem::StaticProblem prob(mesh, fem::Analysis::kPlaneStress);
  prob.set_material(fem::Material::isotropic(10.0e6, 0.30));
  // Quarter symmetry: y = 0 plane holds u_y, x = 0 plane holds u_x.
  fix_where(prob, mesh, false, true,
            [](Vec2 p) { return std::abs(p.y) < 1e-9; });
  fix_where(prob, mesh, true, false,
            [](Vec2 p) { return std::abs(p.x) < 1e-9; });
  // Remote tension: negative pressure (pull) on the x = 5 edge.
  external_pressure(prob, mesh, -sigma, [](Vec2 p) {
    return std::abs(p.x - 5.0) < 1e-9;
  });

  const fem::StaticSolution sol = fem::solve(prob, RunOptions{});
  out.displacement = sol.displacement;
  // sigma_x is "s11" in plane terms; kRadial extracts s11.
  out.fields.push_back(make_field(
      "SIGMA-X", fem::nodal_field(prob, sol, fem::StressComponent::kRadial),
      25.0));
  return out;
}

std::vector<AnalysisOutput> all_analyses() {
  std::vector<AnalysisOutput> v;
  v.push_back(fig13_analysis());
  v.push_back(fig14_analysis());
  v.push_back(fig15_analysis());
  v.push_back(fig16_analysis());
  v.push_back(fig17_analysis());
  v.push_back(fig18_analysis());
  return v;
}

}  // namespace feio::scenarios
