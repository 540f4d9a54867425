// ospl_driver: run OSPL the way the 1970 production program ran — from a
// punched card deck (Appendix C format).
//
//   ospl_driver [path/to/deck] [output.svg]
//
// With no arguments a built-in demonstration deck is used (the Figure 12
// concept triangle embedded in a small patch). Prints the contour summary
// and writes the iso-plot as SVG.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cards/card_io.h"
#include "mesh/topology.h"
#include "ospl/deck.h"
#include "ospl/ospl.h"
#include "plot/svg.h"
#include "util/error.h"

using namespace feio;

namespace {

// Builds a small OSPL demonstration deck programmatically (keeping the
// fixed-column alignment correct by construction).
std::string demo_deck() {
  ospl::OsplCase c;
  c.mesh.add_node({0.0, 0.0}, mesh::BoundaryKind::kBoundaryShared);
  c.mesh.add_node({10.0, 0.0}, mesh::BoundaryKind::kBoundaryShared);
  c.mesh.add_node({10.0, 8.0}, mesh::BoundaryKind::kBoundaryShared);
  c.mesh.add_node({0.0, 8.0}, mesh::BoundaryKind::kBoundaryShared);
  c.mesh.add_node({4.0, 5.0});
  c.values = {5.0, 15.0, 32.0, 8.0, 20.0};
  c.mesh.add_element(0, 1, 4);
  c.mesh.add_element(1, 2, 4);
  c.mesh.add_element(2, 3, 4);
  c.mesh.add_element(3, 0, 4);
  c.mesh.classify_boundary(mesh::Topology(c.mesh));
  c.title1 = "TYPICAL OUTPUT VALUES FROM ANALYSIS";
  c.title2 = "AND RESULTING PLOT FROM PROGRAM OSPL";
  c.delta = 10.0;  // the Figure 12 interval
  return ospl::write_deck(c);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ospl::OsplCase c;
    if (argc > 1) {
      std::ifstream in(argv[1]);
      if (!in.good()) {
        std::fprintf(stderr, "cannot open deck '%s'\n", argv[1]);
        return 1;
      }
      c = ospl::read_deck(in);
    } else {
      std::printf("(no deck given; using the built-in demonstration deck)\n");
      c = ospl::read_deck_string(demo_deck());
    }

    const ospl::OsplResult r = ospl::run(c);
    std::printf("%s\n", c.title1.c_str());
    std::printf("values: %g .. %g\n", r.vmin, r.vmax);
    std::printf("%s (lowest contour %g)\n",
                ospl::interval_caption(r.delta).c_str(), r.lowest);
    std::printf("isograms: %zu levels, %zu segments, %zu labels (%d "
                "suppressed for overlap)\n",
                r.levels.size(), r.segments.size(), r.labels.accepted.size(),
                r.labels.suppressed);

    const std::string out_path =
        argc > 2 ? argv[2] : std::string("out/ospl_driver.svg");
    plot::write_svg(r.plot, out_path);
    std::printf("wrote %s\n", out_path.c_str());
  } catch (const Error& e) {
    std::fprintf(stderr, "deck error: %s\n", e.what());
    return 1;
  }
  return 0;
}
