// Quickstart: the full IDLZ -> analysis -> OSPL chain on a small plate.
//
//   1. Describe the surface as subdivisions on the integer grid (IDLZ
//      card types 3-6, built programmatically here).
//   2. Run IDLZ: nodes numbered, elements created, boundary shaped,
//      elements reformed, bandwidth renumbered.
//   3. Analyze: plane-stress plate with a hole-free profile under tension.
//   4. Run OSPL: iso-stress plot with the automatic contour interval.
//
// Outputs: out/quickstart_mesh.svg, out/quickstart_stress.svg
#include <cstdio>

#include "fem/solver.h"
#include "fem/stress.h"
#include "idlz/idlz.h"
#include "ospl/ospl.h"
#include "plot/mesh_plot.h"
#include "plot/svg.h"

using namespace feio;

int main() {
  // --- 1. The idealization: a 6 x 3 plate, refined toward the right edge
  // with a trapezoidal subdivision, top edge slightly arched.
  idlz::IdlzCase c;
  c.title = "QUICKSTART PLATE";
  c.options.renumber_nodes = true;

  idlz::Subdivision left;
  left.id = 1;
  left.k1 = 1; left.l1 = 1; left.k2 = 5; left.l2 = 5;
  idlz::Subdivision right;
  right.id = 2;
  right.k1 = 5; right.l1 = 1; right.k2 = 7; right.l2 = 5;
  c.subdivisions = {left, right};

  idlz::ShapingSpec s1;
  s1.subdivision_id = 1;
  s1.lines = {
      {1, 1, 5, 1, {0.0, 0.0}, {4.0, 0.0}, 0.0},        // bottom
      {1, 5, 5, 5, {0.0, 3.0}, {4.0, 3.2}, 0.0},        // top
  };
  idlz::ShapingSpec s2;
  s2.subdivision_id = 2;
  s2.lines = {
      {5, 1, 7, 1, {4.0, 0.0}, {6.0, 0.0}, 0.0},
      {7, 5, 5, 5, {6.0, 3.0}, {4.0, 3.2}, 12.0},       // gentle arc
  };
  c.shaping = {s1, s2};

  const idlz::IdlzResult r = idlz::run(c);
  std::printf("%s", idlz::summarize(r).c_str());

  plot::write_svg(plot::plot_mesh(r.mesh, c.title), "out/quickstart_mesh.svg");

  // --- 2. The analysis: clamp the left edge, pull the right edge.
  fem::StaticProblem prob(r.mesh, fem::Analysis::kPlaneStress);
  prob.set_material(fem::Material::isotropic(10.0e6, 0.3));
  for (int n = 0; n < r.mesh.num_nodes(); ++n) {
    const geom::Vec2 p = r.mesh.pos(n);
    if (p.x < 1e-9) prob.fix(n, true, true);
  }
  // Tension on the right edge: negative pressure pulls outward.
  for (int n1 = 0; n1 < r.mesh.num_nodes(); ++n1) {
    for (int n2 = n1 + 1; n2 < r.mesh.num_nodes(); ++n2) {
      const geom::Vec2 a = r.mesh.pos(n1);
      const geom::Vec2 b = r.mesh.pos(n2);
      if (a.x > 6.0 - 1e-9 && b.x > 6.0 - 1e-9 &&
          std::abs(a.y - b.y) < 0.9) {
        // Walk the edge upward so its left normal points -x; the negative
        // pressure then pulls the edge outward (+x tension).
        if (a.y < b.y) {
          prob.edge_pressure(n1, n2, -1000.0);
        } else {
          prob.edge_pressure(n2, n1, -1000.0);
        }
      }
    }
  }
  const fem::StaticSolution sol = fem::solve(prob, RunOptions{});

  // --- 3. The iso-plot: effective stress with the automatic interval.
  ospl::OsplCase oc;
  oc.mesh = r.mesh;
  oc.values = fem::nodal_field(prob, sol, fem::StressComponent::kEffective);
  oc.title1 = "QUICKSTART PLATE";
  oc.title2 = "CONTOUR PLOT * EFFECTIVE STRESS *";
  const ospl::OsplResult plot = ospl::run(oc);
  plot::write_svg(plot.plot, "out/quickstart_stress.svg");

  std::printf("contour interval (automatic): %.1f\n", plot.delta);
  std::printf("isograms drawn: %zu segments, %zu labels\n",
              plot.segments.size(), plot.labels.accepted.size());
  std::printf("wrote out/quickstart_mesh.svg, out/quickstart_stress.svg\n");
  return 0;
}
