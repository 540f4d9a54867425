// The DSRV hatch of Figure 9 and the DSSV bottom hatch plot of Figure 13.
//
// Demonstrates the two headline IDLZ claims on a production-sized mesh:
//   - a ~100-node boundary located from a handful of coordinates plus
//     eleven circular-arc radii (Figure 9 / claim C3);
//   - input data a small fraction of the data produced (claim C1);
// then chains into the axisymmetric pressure analysis and the effective
// stress contour plot of Figure 13.
//
// Outputs: out/fig09_initial.svg, out/fig09_before_reform.svg,
//          out/fig09_final.svg, out/fig13_effective.svg
#include <cstdio>

#include "idlz/idlz.h"
#include "mesh/quality.h"
#include "ospl/ospl.h"
#include "plot/mesh_plot.h"
#include "plot/svg.h"
#include "scenarios/scenarios.h"

using namespace feio;

int main() {
  idlz::IdlzCase c = scenarios::fig09_dsrv_hatch();
  c.options.renumber_nodes = true;
  const idlz::IdlzResult r = idlz::run(c);

  std::printf("%s", idlz::summarize(r).c_str());
  std::printf("claim C3 (paper: 100 boundary nodes from 24 coordinates and "
              "11 arc radii):\n");
  std::printf("  boundary nodes ......... %d\n", r.volume.boundary_nodes);
  std::printf("  coordinates supplied ... %d\n",
              r.volume.located_coordinates);
  std::printf("  circular arcs .......... %d\n", r.volume.arcs_used);
  std::printf("claim C1 (paper: input < 5%% of produced data): %.2f%%\n",
              100.0 * r.volume.input_fraction());

  plot::write_svg(plot::plot_mesh(r.initial, mesh::Topology(r.initial),
                                  c.title + " (INITIAL)"),
                  "out/fig09_initial.svg");
  plot::write_svg(plot::plot_mesh(r.before_reform,
                                  mesh::Topology(r.before_reform),
                                  c.title + " (BEFORE REFORM)"),
                  "out/fig09_before_reform.svg");
  plot::write_svg(
      plot::plot_mesh(r.mesh, mesh::Topology(r.mesh), c.title + " (FINAL)"),
      "out/fig09_final.svg");

  const auto qb = mesh::summarize_quality(r.before_reform);
  const auto qa = mesh::summarize_quality(r.mesh);
  std::printf("reform: %d flips; worst min-angle %.1f -> %.1f deg\n",
              r.reform.flips, qb.min_angle_rad * 57.2958,
              qa.min_angle_rad * 57.2958);

  // Figure 13: the pressurized hatch.
  const scenarios::AnalysisOutput out = scenarios::fig13_analysis();
  ospl::OsplCase oc;
  oc.mesh = out.idlz.mesh;
  oc.values = out.fields[0].values;
  oc.title1 = "DSSV BOTTOM HATCH";
  oc.title2 = "CONTOUR PLOT * EFFECTIVE STRESS * INCREMENT NUMBER 1";
  const ospl::OsplResult plot = ospl::run(oc);
  plot::write_svg(plot.plot, "out/fig13_effective.svg");
  std::printf("figure 13: interval %.0f (paper plot used 2500 at full "
              "design load), %zu isogram segments\n",
              plot.delta, plot.segments.size());

  // Figure 13's caption says "MODIFIED FOR CONTACT": re-run with the seat
  // as unilateral supports and report which rim nodes actually bear.
  const scenarios::AnalysisOutput contact =
      scenarios::fig13_contact_analysis();
  int bearing = 0;
  double total_reaction = 0.0;
  for (double reaction : contact.fields[1].values) {
    if (reaction > 0.0) {
      ++bearing;
      total_reaction += reaction;
    }
  }
  std::printf("modified for contact: %d seat nodes bearing (total reaction "
              "%.3g), remainder lifted off\n",
              bearing, total_reaction);
  ospl::OsplCase cc;
  cc.mesh = contact.idlz.mesh;
  cc.values = contact.fields[0].values;
  cc.title1 = contact.title;
  cc.title2 = "CONTOUR PLOT * EFFECTIVE STRESS * SECOND IDEALIZATION";
  plot::write_svg(ospl::run(cc).plot, "out/fig13_contact_effective.svg");
  std::printf("wrote out/fig13_contact_effective.svg\n");
  return 0;
}
