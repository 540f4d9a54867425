// L-OSPL-*: lints on an iso-plot case — contour interval DELTA against the
// actual nodal-value range, and the zoom window against the mesh. A wrong
// DELTA does not fail the OSPL run; it silently yields an empty or
// unreadable plot, which is why these are lint findings rather than parse
// errors.
#include <algorithm>
#include <string>
#include <utility>

#include "lint/lint.h"
#include "ospl/interval.h"
#include "util/text.h"

namespace feio::lint {
namespace {

// L-OSPL-004 fires when an explicit DELTA implies more levels than this.
constexpr int kMaxContourLevels = 200;

}  // namespace

void lint_ospl_case(const ospl::OsplCase& c, DiagSink& sink) {
  // The type-1 header card carries DELTA in columns 51-60 and the window in
  // columns 11-50 of (2I5,5F10.4).
  const SourceLoc delta_loc{c.deck_name, c.header_card, 51, 60};
  const SourceLoc window_loc{c.deck_name, c.header_card, 11, 50};

  if (c.values.empty() || c.mesh.num_nodes() == 0) return;

  const auto [lo_it, hi_it] =
      std::minmax_element(c.values.begin(), c.values.end());
  const double vmin = *lo_it;
  const double vmax = *hi_it;

  // The message openings every DELTA rule shares.
  const auto delta_is = [&c] {
    std::string msg = "contour interval DELTA = ";
    append_fixed(msg, c.delta, 4);
    return msg;
  };
  const auto append_range = [vmin, vmax](std::string& msg) {
    append_fixed(msg, vmin, 4);
    msg += " .. ";
    append_fixed(msg, vmax, 4);
  };

  // L-OSPL-003: a negative interval never produces a level (the automatic
  // rule only triggers on DELTA == 0).
  if (c.delta < 0.0) {
    sink.error("L-OSPL-003",
               delta_is() + " is negative; use 0 for the automatic interval",
               delta_loc);
  }

  // L-OSPL-001: a flat field has no contours regardless of DELTA.
  if (vmax <= vmin) {
    std::string msg =
        "all " + std::to_string(c.values.size()) + " nodal values equal ";
    append_fixed(msg, vmin, 4);
    msg += "; no contours can be drawn";
    sink.warning("L-OSPL-001", std::move(msg), delta_loc);
  } else if (c.delta > 0.0) {
    // L-OSPL-002/004 only apply to an explicit interval; the automatic rule
    // of Appendix D bounds the level count by construction.
    const double lowest = ospl::lowest_contour(vmin, c.delta);
    const double levels_in_range =
        lowest > vmax ? 0.0 : (vmax - lowest) / c.delta + 1.0;
    if (levels_in_range < 2.0) {
      std::string msg = delta_is() + " leaves " +
                        std::to_string(static_cast<int>(levels_in_range)) +
                        " contour level(s) inside the nodal-value range ";
      append_range(msg);
      msg += " (automatic interval would be ";
      append_fixed(msg, ospl::auto_interval(vmin, vmax), 4);
      msg += ')';
      sink.warning("L-OSPL-002", std::move(msg), delta_loc);
    } else if (levels_in_range > kMaxContourLevels) {
      std::string msg = delta_is() + " implies about " +
                        std::to_string(static_cast<long>(levels_in_range)) +
                        " contour levels over the range ";
      append_range(msg);
      msg += "; the plot will be solid ink";
      sink.warning("L-OSPL-004", std::move(msg), delta_loc);
    }
  }

  // L-OSPL-005: a window that misses the mesh clips away the entire plot.
  if (c.window.valid() && c.mesh.num_nodes() > 0) {
    const geom::BBox mesh_box = c.mesh.bounds();
    const bool disjoint =
        c.window.hi.x < mesh_box.lo.x || c.window.lo.x > mesh_box.hi.x ||
        c.window.hi.y < mesh_box.lo.y || c.window.lo.y > mesh_box.hi.y;
    if (disjoint) {
      std::string msg = "zoom window (";
      append_fixed(msg, c.window.lo.x, 4);
      msg += ',';
      append_fixed(msg, c.window.lo.y, 4);
      msg += ")-(";
      append_fixed(msg, c.window.hi.x, 4);
      msg += ',';
      append_fixed(msg, c.window.hi.y, 4);
      msg += ") does not intersect the mesh; the plot will be empty";
      sink.warning("L-OSPL-005", std::move(msg), window_loc);
    }
  }
}

}  // namespace feio::lint
