#include "plot/deformed.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "mesh/topology.h"
#include "plot/mesh_plot.h"
#include "util/error.h"
#include "util/text.h"

namespace feio::plot {

double draw_deformed(const mesh::TriMesh& mesh,
                     const std::vector<geom::Vec2>& displacement,
                     PlotFile& out, const DeformedPlotOptions& opts) {
  FEIO_REQUIRE(static_cast<int>(displacement.size()) == mesh.num_nodes(),
               "one displacement per node required");

  double scale = opts.scale;
  if (scale <= 0.0) {
    double max_disp = 0.0;
    for (const geom::Vec2& d : displacement) {
      max_disp = std::max(max_disp, d.norm());
    }
    const geom::BBox box = mesh.bounds();
    const double diag = std::hypot(box.width(), box.height());
    scale = max_disp > 0.0 ? 0.05 * diag / max_disp : 1.0;
  }

  // The deformed mesh has the same connectivity, so one topology serves
  // both drawings.
  const mesh::Topology topo(mesh);
  if (opts.show_undeformed) {
    for (const mesh::Edge& e : topo.boundary_edges()) {
      out.line(mesh.pos(e.a), mesh.pos(e.b), Pen::kGridAid);
    }
  }

  mesh::TriMesh deformed = mesh;
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    deformed.set_pos(n, mesh.pos(n) +
                            displacement[static_cast<size_t>(n)] * scale);
  }
  draw_mesh(deformed, topo, out);
  return scale;
}

PlotFile plot_deformed(const mesh::TriMesh& mesh,
                       const std::vector<geom::Vec2>& displacement,
                       std::string title, const DeformedPlotOptions& opts) {
  PlotFile out;
  const double scale = draw_deformed(mesh, displacement, out, opts);
  title += "  (DEFLECTIONS x";
  append_fixed(title, scale, 1);
  title += ')';
  out.set_title(std::move(title));
  return out;
}

}  // namespace feio::plot
