// L-SUB-*: lints on the subdivision assemblage (type-4 cards) and the
// shaping cards (type-6), before any mesh exists.
#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "geom/polygon.h"
#include "geom/vec2.h"
#include "lint/lint.h"
#include "util/error.h"
#include "util/text.h"

namespace feio::lint {
namespace {

constexpr double kPi = 3.14159265358979323846;

SourceLoc card_loc(const std::string& deck, int card) {
  return {deck, card, 0, 0};
}

// True when the subdivision's corner ordering and taper are consistent
// enough for its strip geometry to be queried. Inconsistent subdivisions
// were already reported as E-IDLZ-004 at parse time.
bool geometry_usable(const idlz::Subdivision& s) {
  try {
    s.validate();
  } catch (const Error&) {
    return false;
  }
  return true;
}

// The paper's grid (Table 2), which L-SUB-001 lints every deck against.
const idlz::Limits kLimits = idlz::Limits::paper();

bool in_bounds(const idlz::Subdivision& s) {
  return s.k1 >= 1 && s.l1 >= 1 && s.k2 <= kLimits.max_k &&
         s.l2 <= kLimits.max_l;
}

// Convex outline of a subdivision on the integer grid. Strips change span
// linearly (|NTAPRW|/|NTAPCM| nodes per step at each end), so the outline
// is exactly the quad through the first and last strips' end points.
std::vector<geom::Vec2> outline(const idlz::Subdivision& s) {
  int lo0 = 0, hi0 = 0, lo1 = 0, hi1 = 0;
  const int last = s.strip_count() - 1;
  s.strip_span(0, lo0, hi0);
  s.strip_span(last, lo1, hi1);
  const auto d = [](int v) { return static_cast<double>(v); };
  if (s.is_col_trapezoid()) {
    // Strips are columns at x = k1..k2; spans are vertical.
    return {{d(s.k1), d(lo0)}, {d(s.k2), d(lo1)},
            {d(s.k2), d(hi1)}, {d(s.k1), d(hi0)}};
  }
  // Strips are rows at y = l1..l2; spans are horizontal.
  return {{d(lo0), d(s.l1)}, {d(hi0), d(s.l1)},
          {d(hi1), d(s.l2)}, {d(lo1), d(s.l2)}};
}

// Sutherland–Hodgman clip of a convex polygon against the half-plane left
// of edge a->b.
std::vector<geom::Vec2> clip_half_plane(const std::vector<geom::Vec2>& poly,
                                        geom::Vec2 a, geom::Vec2 b) {
  std::vector<geom::Vec2> out;
  const double ex = b.x - a.x;
  const double ey = b.y - a.y;
  const auto side = [&](geom::Vec2 p) {
    return ex * (p.y - a.y) - ey * (p.x - a.x);
  };
  const size_t n = poly.size();
  for (size_t i = 0; i < n; ++i) {
    const geom::Vec2 p = poly[i];
    const geom::Vec2 q = poly[(i + 1) % n];
    const double sp = side(p);
    const double sq = side(q);
    if (sp >= 0) out.push_back(p);
    if ((sp > 0 && sq < 0) || (sp < 0 && sq > 0)) {
      const double t = sp / (sp - sq);
      out.push_back(lerp(p, q, t));
    }
  }
  return out;
}

// Area of the intersection of two convex polygons (vertices CCW).
double convex_intersection_area(std::vector<geom::Vec2> poly,
                                const std::vector<geom::Vec2>& clip) {
  const size_t n = clip.size();
  for (size_t i = 0; i < n && !poly.empty(); ++i) {
    poly = clip_half_plane(poly, clip[i], clip[(i + 1) % n]);
  }
  if (poly.size() < 3) return 0.0;
  return std::abs(geom::polygon_area(poly));
}

}  // namespace

void lint_subdivisions(const std::vector<idlz::Subdivision>& subdivisions,
                       const std::string& deck_name, DiagSink& sink) {
  // L-SUB-001 (grid bounds) and L-SUB-004 (duplicate ids) are pure card
  // checks and run for every subdivision.
  std::set<int> seen_ids;
  for (const idlz::Subdivision& s : subdivisions) {
    if (!in_bounds(s)) {
      sink.error("L-SUB-001",
                 "subdivision " + std::to_string(s.id) + " corners (" +
                     std::to_string(s.k1) + "," + std::to_string(s.l1) +
                     ")-(" + std::to_string(s.k2) + "," +
                     std::to_string(s.l2) + ") leave the 1.." +
                     std::to_string(kLimits.max_k) + " x 1.." +
                     std::to_string(kLimits.max_l) + " integer grid",
                 card_loc(deck_name, s.card));
    }
    if (!seen_ids.insert(s.id).second) {
      sink.warning("L-SUB-004",
                   "subdivision number " + std::to_string(s.id) +
                       " appears on more than one type-4 card",
                   card_loc(deck_name, s.card));
    }
  }

  // The area/adjacency rules only consider subdivisions whose geometry is
  // consistent and within bounds: an out-of-bounds card could request a
  // grid far larger than any valid deck, and its points must not be
  // enumerated.
  std::vector<const idlz::Subdivision*> usable;
  for (const idlz::Subdivision& s : subdivisions) {
    if (geometry_usable(s) && in_bounds(s)) usable.push_back(&s);
  }

  // L-SUB-002: pairwise outline intersection. Legitimately adjacent
  // subdivisions share only an edge (area 0); anything beyond half a grid
  // cell is genuine overlap and will generate duplicate elements.
  std::vector<std::vector<geom::Vec2>> outlines;
  outlines.reserve(usable.size());
  for (const idlz::Subdivision* s : usable) outlines.push_back(outline(*s));
  for (size_t i = 0; i < usable.size(); ++i) {
    for (size_t j = i + 1; j < usable.size(); ++j) {
      const double area = convex_intersection_area(outlines[i], outlines[j]);
      if (area < 0.5) continue;
      std::string msg = "subdivisions " + std::to_string(usable[i]->id) +
                        " and " + std::to_string(usable[j]->id) +
                        " overlap (";
      append_fixed(msg, area, 1);
      msg += " grid cells of common area)";
      sink.error("L-SUB-002", std::move(msg),
                 card_loc(deck_name, usable[j]->card));
    }
  }

  // L-SUB-003: connectivity of the assemblage under shared grid points.
  if (usable.size() > 1) {
    std::vector<std::set<idlz::GridPoint>> points;
    points.reserve(usable.size());
    for (const idlz::Subdivision* s : usable) {
      const auto pts = s->grid_points();
      points.emplace_back(pts.begin(), pts.end());
    }
    std::vector<size_t> parent(usable.size());
    for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
    const auto find = [&](size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (size_t i = 0; i < usable.size(); ++i) {
      for (size_t j = i + 1; j < usable.size(); ++j) {
        const bool touch = std::any_of(
            points[i].begin(), points[i].end(),
            [&](const idlz::GridPoint& p) { return points[j].count(p) > 0; });
        if (touch) parent[find(i)] = find(j);
      }
    }
    std::set<size_t> roots;
    for (size_t i = 0; i < usable.size(); ++i) roots.insert(find(i));
    if (roots.size() > 1) {
      sink.warning("L-SUB-003",
                   "the " + std::to_string(usable.size()) +
                       " subdivisions form " + std::to_string(roots.size()) +
                       " disconnected regions; the stiffness matrix will be "
                       "block diagonal",
                   card_loc(deck_name, usable.front()->card));
    }
  }
}

void lint_shaping(const idlz::IdlzCase& c, DiagSink& sink) {
  for (const idlz::ShapingSpec& spec : c.shaping) {
    for (const idlz::ShapeLine& line : spec.lines) {
      if (line.radius == 0.0) continue;
      const double chord = (line.p2 - line.p1).norm();
      const double r = std::abs(line.radius);
      if (chord <= 0.0) continue;  // degenerate run; shaped as a point
      if (2.0 * r < chord) {
        std::string msg = "shaping arc for subdivision " +
                          std::to_string(spec.subdivision_id) +
                          " has radius ";
        append_fixed(msg, r, 4);
        msg += " smaller than half its chord ";
        append_fixed(msg, chord, 4);
        msg += "; no such arc exists";
        sink.error("L-SUB-006", std::move(msg),
                   card_loc(c.deck_name, line.card));
        continue;
      }
      const double sweep_deg =
          2.0 * std::asin(std::min(1.0, chord / (2.0 * r))) * 180.0 / kPi;
      if (sweep_deg > 90.0 + 1e-9) {
        std::string msg = "shaping arc for subdivision " +
                          std::to_string(spec.subdivision_id) + " subtends ";
        append_fixed(msg, sweep_deg, 1);
        msg +=
            " degrees; General Restriction 2 allows at most 90 (split the run "
            "into shorter arcs)";
        sink.error("L-SUB-005", std::move(msg),
                   card_loc(c.deck_name, line.card));
      }
    }
  }
}

}  // namespace feio::lint
