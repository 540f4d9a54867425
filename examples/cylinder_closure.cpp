// The GRP cylinder with titanium end closure (Figures 15 and 16).
//
// Runs both variants — ring-stiffened and unstiffened — of the orthotropic
// filament-wound cylinder under external hydrostatic pressure, and writes
// the four stress plots the paper shows (15c/15d, 16c/16d), plus the two
// idealizations (15a/15b-style).
//
// Outputs: out/fig15_idealization.svg, out/fig15_circumferential.svg,
//          out/fig15_shear.svg, out/fig16_idealization.svg,
//          out/fig16_effective.svg, out/fig16_circumferential.svg
#include <algorithm>
#include <cstdio>
#include <string>

#include "fem/solver.h"
#include "ospl/ospl.h"
#include "plot/deformed.h"
#include "plot/mesh_plot.h"
#include "plot/svg.h"
#include "scenarios/scenarios.h"

using namespace feio;

namespace {

std::string slug(std::string name) {
  for (char& ch : name) ch = ch == ' ' ? '_' : static_cast<char>(std::tolower(ch));
  return name.substr(0, name.find("_stress"));
}

void emit(const scenarios::AnalysisOutput& out) {
  plot::write_svg(plot::plot_mesh(out.idlz.mesh,
                                  mesh::Topology(out.idlz.mesh), out.title),
                  "out/" + out.id + "_idealization.svg");
  for (const auto& f : out.fields) {
    ospl::OsplCase oc;
    oc.mesh = out.idlz.mesh;
    oc.values = f.values;
    oc.title1 = out.title;
    oc.title2 = "CONTOUR PLOT * " + f.name + " * INCREMENT NUMBER 1";
    const ospl::OsplResult r = ospl::run(oc);
    const std::string path = "out/" + out.id + "_" + slug(f.name) + ".svg";
    plot::write_svg(r.plot, path);
    const double peak = std::max(std::abs(r.vmin), std::abs(r.vmax));
    std::printf("  %-24s peak %9.0f psi  interval %6.0f  -> %s\n",
                f.name.c_str(), peak, r.delta, path.c_str());
  }
}

}  // namespace

int main() {
  std::printf("Figure 15: stiffened GRP cylinder + titanium closure\n");
  const scenarios::AnalysisOutput stiff = scenarios::fig15_analysis();
  emit(stiff);
  plot::write_svg(
      plot::plot_deformed(stiff.idlz.mesh, stiff.displacement, stiff.title),
      "out/fig15_deformed.svg");
  std::printf("  deformed shape           -> out/fig15_deformed.svg\n");
  std::printf("Figure 16: unstiffened variant\n");
  emit(scenarios::fig16_analysis());
  std::printf(
      "(External pressure 500 psi; hoop compression should drop with ring\n"
      " stiffeners fitted, matching the paper's design progression.)\n");
  return 0;
}
