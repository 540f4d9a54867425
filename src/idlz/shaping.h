// Shaping: giving every node its rectangular coordinates.
//
// The user locates every boundary node on two opposite sides of each
// subdivision using "type 6" cards — one card per straight line or circular
// arc, giving the integer grid coordinates of the run's two ends, the real
// coordinates those ends map to, and a radius (0 for straight). Nodes along
// the run are spaced equally (equal angles on an arc). IDLZ then locates the
// remaining nodes of the subdivision by linear interpolation between the two
// shaped sides, which makes the other two sides straight lines — exactly the
// behaviour the paper documents.
//
// Subdivisions are shaped in deck order, so a side whose nodes were located
// while shaping an earlier subdivision counts as located here (Hint 6).
#pragma once

#include <vector>

#include "geom/vec2.h"
#include "idlz/assembler.h"
#include "idlz/subdivision.h"

namespace feio::idlz {

// One "type 6" card: a straight line or circular arc locating a run of
// boundary nodes.
struct ShapeLine {
  int k1 = 0, l1 = 0;       // integer grid coordinates of end 1
  int k2 = 0, l2 = 0;       // integer grid coordinates of end 2
  geom::Vec2 p1;            // actual location of end 1
  geom::Vec2 p2;            // actual location of end 2
  double radius = 0.0;      // 0 => straight; else CCW arc from end 1 to 2
  // 1-based deck card number of this type-6 card (0 when programmatic).
  int card = 0;
};

// The "type 5/6" cards for one subdivision.
struct ShapingSpec {
  int subdivision_id = 0;   // matches Subdivision::id
  std::vector<ShapeLine> lines;
  // 1-based deck card number of the type-5 header card (0 when programmatic).
  int card = 0;
};

struct ShapingReport {
  int nodes_from_cards = 0;    // located directly by type-6 cards
  int nodes_interpolated = 0;  // located by linear interpolation
};

// Applies all shaping specs to the assembly in subdivision order, moving
// mesh node positions from integer-grid placeholders to real coordinates,
// then orients the elements CCW, keeping the assembly's topology in step.
// Throws feio::Error when a run references grid points outside its
// subdivision, when a subdivision ends up with no fully-located pair of
// opposite sides, or when any node remains unlocated at the end.
ShapingReport shape(const std::vector<Subdivision>& subdivisions,
                    const std::vector<ShapingSpec>& specs, Assembly& assembly,
                    const Limits& limits = Limits::paper());

// The grid points covered by a shape line's integer run, end points
// included. Consecutive points step by (dk/g, dl/g) where g = gcd(|dk|,
// |dl|); a degenerate run (both ends equal) yields the single point —
// that is how a triangular subdivision's point-side is "located as if it
// were a line" (General Restriction 4). Exposed for testing.
std::vector<GridPoint> shape_line_run(const ShapeLine& line);

}  // namespace feio::idlz
