// Plane-stress demonstration: the Kirsch plate.
//
// The paper notes that "while only axisymmetric problems have been shown
// here, IDLZ and OSPL work equally as well with any plane stress or plane
// strain analysis program." This example makes that concrete on the
// classic benchmark with a known answer: a plate with a circular hole
// under remote tension concentrates stress by a factor of 3 at the hole.
//
// Outputs: out/kirsch_mesh.svg, out/kirsch_sigma_x.svg,
//          out/kirsch_deformed.svg
#include <algorithm>
#include <cstdio>

#include "ospl/ospl.h"
#include "plot/deformed.h"
#include "plot/mesh_plot.h"
#include "plot/svg.h"
#include "scenarios/scenarios.h"

using namespace feio;

int main() {
  const scenarios::AnalysisOutput out = scenarios::kirsch_analysis();
  const mesh::TriMesh& mesh = out.idlz.mesh;
  std::printf("%s\n", out.title.c_str());
  std::printf("O-grid: %d nodes, %d elements (two ring subdivisions, hole "
              "arc + square edge)\n",
              mesh.num_nodes(), mesh.num_elements());

  plot::write_svg(plot::plot_mesh(mesh, mesh::Topology(mesh), out.title),
                  "out/kirsch_mesh.svg");
  plot::write_svg(plot::plot_deformed(mesh, out.displacement, out.title),
                  "out/kirsch_deformed.svg");

  ospl::OsplCase oc;
  oc.mesh = mesh;
  oc.values = out.fields[0].values;
  oc.title1 = out.title;
  oc.title2 = "CONTOUR PLOT * SIGMA-X *";
  oc.delta = out.fields[0].suggested_delta;
  const ospl::OsplResult plot = ospl::run(oc);
  plot::write_svg(plot.plot, "out/kirsch_sigma_x.svg");

  double scf = 0.0;
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    const geom::Vec2 p = mesh.pos(n);
    if (std::abs(p.x) < 1e-6 && std::abs(p.y - 1.0) < 1e-6) {
      scf = out.fields[0].values[static_cast<size_t>(n)] / 100.0;
    }
  }
  std::printf("stress concentration at hole top: %.2f (analytic: 3.00)\n",
              scf);
  std::printf("sigma-x contours: interval %.0f, %zu segments\n", plot.delta,
              plot.segments.size());
  std::printf("wrote out/kirsch_mesh.svg, out/kirsch_sigma_x.svg, "
              "out/kirsch_deformed.svg\n");
  return 0;
}
