#include "plot/mesh_plot.h"

#include <string>
#include <vector>

namespace feio::plot {
namespace {

constexpr double kLabelSize = 0.8;

}  // namespace

void draw_mesh(const mesh::TriMesh& mesh, const mesh::Topology& topo,
               PlotFile& out, const MeshPlotOptions& opts) {
  // Each edge once, at its first use in element order.
  std::vector<char> drawn(static_cast<size_t>(topo.num_edges()), 0);
  for (int el = 0; el < mesh.num_elements(); ++el) {
    for (int id : topo.element_edges(el)) {
      if (drawn[static_cast<size_t>(id)]) continue;
      drawn[static_cast<size_t>(id)] = 1;
      const mesh::Edge e = topo.edges()[static_cast<size_t>(id)];
      out.line(mesh.pos(e.a), mesh.pos(e.b),
               topo.is_boundary(id) ? Pen::kBoundary : Pen::kMesh);
    }
  }

  if (opts.number_nodes) {
    for (int i = 0; i < mesh.num_nodes(); ++i) {
      out.text(mesh.pos(i), std::to_string(i + 1), kLabelSize);
    }
  }
  if (opts.number_elements) {
    for (int e = 0; e < mesh.num_elements(); ++e) {
      const auto c = mesh.corners(e);
      const geom::Vec2 centroid = (c[0] + c[1] + c[2]) / 3.0;
      out.text(centroid, std::to_string(e + 1), kLabelSize);
    }
  }
}

PlotFile plot_mesh(const mesh::TriMesh& mesh, const mesh::Topology& topo,
                   std::string title, const MeshPlotOptions& opts) {
  PlotFile out(std::move(title));
  draw_mesh(mesh, topo, out, opts);
  return out;
}

}  // namespace feio::plot
