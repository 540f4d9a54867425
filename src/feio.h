// Umbrella header: the full public API of the feio library.
//
//   #include "feio.h"
//
// pulls in IDLZ (idealization), OSPL (iso-plotting), the FEM substrate,
// the plotting backends, the card I/O engine, and the paper's scenario
// gallery. Fine-grained headers remain available for faster builds.
#pragma once

#include "cards/card_io.h"    // IWYU pragma: export
#include "cards/format.h"     // IWYU pragma: export
#include "feio/api.h"         // IWYU pragma: export
#include "fem/assembly.h"     // IWYU pragma: export
#include "fem/contact.h"      // IWYU pragma: export
#include "fem/element.h"      // IWYU pragma: export
#include "fem/material.h"     // IWYU pragma: export
#include "fem/skyline.h"      // IWYU pragma: export
#include "fem/solver.h"       // IWYU pragma: export
#include "fem/stress.h"       // IWYU pragma: export
#include "fem/thermal.h"      // IWYU pragma: export
#include "geom/arc.h"         // IWYU pragma: export
#include "geom/polygon.h"     // IWYU pragma: export
#include "geom/polyline.h"    // IWYU pragma: export
#include "geom/vec2.h"        // IWYU pragma: export
#include "idlz/deck.h"        // IWYU pragma: export
#include "idlz/idlz.h"        // IWYU pragma: export
#include "idlz/listing.h"     // IWYU pragma: export
#include "idlz/punch.h"       // IWYU pragma: export
#include "lint/lint.h"        // IWYU pragma: export
#include "lint/rule.h"        // IWYU pragma: export
#include "lint/sarif.h"       // IWYU pragma: export
#include "mesh/bandwidth.h"   // IWYU pragma: export
#include "mesh/io.h"          // IWYU pragma: export
#include "mesh/quality.h"     // IWYU pragma: export
#include "mesh/topology.h"    // IWYU pragma: export
#include "mesh/tri_mesh.h"    // IWYU pragma: export
#include "mesh/validate.h"    // IWYU pragma: export
#include "ospl/deck.h"        // IWYU pragma: export
#include "ospl/ospl.h"        // IWYU pragma: export
#include "plot/ascii.h"       // IWYU pragma: export
#include "plot/deformed.h"    // IWYU pragma: export
#include "plot/mesh_plot.h"   // IWYU pragma: export
#include "plot/svg.h"         // IWYU pragma: export
#include "util/diag.h"        // IWYU pragma: export
#include "util/error.h"       // IWYU pragma: export
#include "util/metrics.h"     // IWYU pragma: export
#include "util/report.h"      // IWYU pragma: export
#include "util/trace.h"       // IWYU pragma: export
