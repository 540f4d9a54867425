// Mesh rendering helpers matching IDLZ's optional plots (Figure 11):
// the idealization with every element shown, and per-subdivision plots with
// node numbers labelled.
#pragma once

#include <string>

#include "mesh/topology.h"
#include "mesh/tri_mesh.h"
#include "plot/plot_file.h"

namespace feio::plot {

struct MeshPlotOptions {
  bool number_nodes = false;   // stamp 1-based node numbers
  bool number_elements = false;
};

// Draws every element edge (once), boundary edges with the heavier pen,
// plus the numbers the options above ask for (size 0.8) into `out`. `topo`
// is the topology of `mesh`.
void draw_mesh(const mesh::TriMesh& mesh, const mesh::Topology& topo,
               PlotFile& out, const MeshPlotOptions& opts = {});

// Convenience: a titled PlotFile of the mesh.
PlotFile plot_mesh(const mesh::TriMesh& mesh, const mesh::Topology& topo,
                   std::string title, const MeshPlotOptions& opts = {});

}  // namespace feio::plot
