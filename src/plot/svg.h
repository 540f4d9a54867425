// SVG renderer for PlotFile display lists.
#pragma once

#include <string>

#include "plot/plot_file.h"

namespace feio::plot {

// Renders the display list to a standalone SVG document 900 px wide, its
// height following the drawing's aspect ratio, with a 6% margin around the
// drawing and a band above it for the title and subtitle.
std::string render_svg(const PlotFile& plot);

// Renders and writes to `path`; throws feio::Error on I/O failure.
void write_svg(const PlotFile& plot, const std::string& path);

}  // namespace feio::plot
