#include <array>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "idlz/assembler.h"
#include "idlz/shaping.h"
#include "mesh/validate.h"
#include "mesh_helpers.h"
#include "util/error.h"

namespace feio::idlz {
namespace {

using geom::Vec2;

Subdivision make(int id, int k1, int l1, int k2, int l2, int ntaprw = 0,
                 int ntapcm = 0) {
  Subdivision s;
  s.id = id;
  s.k1 = k1;
  s.l1 = l1;
  s.k2 = k2;
  s.l2 = l2;
  s.ntaprw = ntaprw;
  s.ntapcm = ntapcm;
  return s;
}

ShapeLine line(int k1, int l1, int k2, int l2, Vec2 p1, Vec2 p2,
               double radius = 0.0) {
  return ShapeLine{k1, l1, k2, l2, p1, p2, radius};
}

TEST(ShapeLineRunTest, HorizontalRun) {
  const auto run = shape_line_run(line(2, 3, 6, 3, {}, {}));
  ASSERT_EQ(run.size(), 5u);
  EXPECT_EQ(run.front(), (GridPoint{2, 3}));
  EXPECT_EQ(run[2], (GridPoint{4, 3}));
  EXPECT_EQ(run.back(), (GridPoint{6, 3}));
}

TEST(ShapeLineRunTest, ReversedRun) {
  const auto run = shape_line_run(line(6, 3, 2, 3, {}, {}));
  EXPECT_EQ(run.front(), (GridPoint{6, 3}));
  EXPECT_EQ(run.back(), (GridPoint{2, 3}));
}

TEST(ShapeLineRunTest, SlantRunUsesGcd) {
  // From (1,1) to (7,4): gcd(6,3)=3 intervals stepping (2,1) — the slant of
  // an NTAPRW=2 trapezoid.
  const auto run = shape_line_run(line(1, 1, 7, 4, {}, {}));
  ASSERT_EQ(run.size(), 4u);
  EXPECT_EQ(run[1], (GridPoint{3, 2}));
  EXPECT_EQ(run[2], (GridPoint{5, 3}));
}

TEST(ShapeLineRunTest, DegeneratePointRun) {
  const auto run = shape_line_run(line(4, 4, 4, 4, {}, {}));
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run[0], (GridPoint{4, 4}));
}

TEST(ShapingTest, RectangleParallelPair) {
  Assembly a = assemble({make(1, 1, 1, 3, 3)});
  const ShapingReport rep =
      shape({make(1, 1, 1, 3, 3)},
            {{1,
              {line(1, 1, 3, 1, {0, 0}, {4, 0}),
               line(1, 3, 3, 3, {0, 2}, {4, 2})}}},
            a);
  EXPECT_EQ(rep.nodes_from_cards, 6);
  EXPECT_EQ(rep.nodes_interpolated, 3);
  // Middle row interpolates halfway.
  EXPECT_EQ(a.mesh.pos(mesh_helpers::node_at(a, GridPoint{2, 2})),
            (Vec2{2, 1}));
  EXPECT_TRUE(mesh_helpers::validate(a.mesh).ok());
}

// Shaping that mirrors a subdivision turns every element clockwise; the
// orientation afterwards swaps their corners 1 and 2, and the assembly's
// topology must follow (its element edge ids 0 and 2 swap).
TEST(ShapingTest, MirroredSubdivisionKeepsTopologyInStep) {
  const std::vector<Subdivision> subs{make(1, 1, 1, 4, 3)};
  Assembly a = assemble(subs);
  mesh_helpers::expect_topology_of(a.topology, a.mesh);
  const std::vector<mesh::Element> before = a.mesh.elements();
  shape(subs,
        {{1,
          {line(1, 1, 4, 1, {6, 0}, {0, 0}),
           line(1, 3, 4, 3, {6, 2}, {0, 2})}}},
        a);
  for (int e = 0; e < a.mesh.num_elements(); ++e) {
    const auto& was = before[static_cast<size_t>(e)].n;
    EXPECT_EQ(a.mesh.element(e).n,
              (std::array<int, 3>{was[0], was[2], was[1]}));
  }
  mesh_helpers::expect_topology_of(a.topology, a.mesh);
}

TEST(ShapingTest, RectangleCrossPair) {
  const std::vector<Subdivision> subs{make(1, 1, 1, 3, 3)};
  Assembly a = assemble(subs);
  shape(subs,
        {{1,
          {line(1, 1, 1, 3, {0, 0}, {0, 2}),
           line(3, 1, 3, 3, {6, 0}, {6, 2})}}},
        a);
  // Rows are straight between the located side nodes.
  EXPECT_EQ(a.mesh.pos(mesh_helpers::node_at(a, GridPoint{2, 1})),
            (Vec2{3, 0}));
  EXPECT_EQ(a.mesh.pos(mesh_helpers::node_at(a, GridPoint{2, 2})),
            (Vec2{3, 1}));
}

TEST(ShapingTest, ArcPlacesNodesAtEqualAngles) {
  const std::vector<Subdivision> subs{make(1, 1, 1, 3, 3)};
  Assembly a = assemble(subs);
  // Left side is a quarter arc of radius 2 about the origin.
  shape(subs,
        {{1,
          {line(1, 1, 1, 3, {2, 0}, {0, 2}, 2.0),
           line(3, 1, 3, 3, {4, 0}, {0, 4})}}},
        a);
  const Vec2 mid = a.mesh.pos(mesh_helpers::node_at(a, GridPoint{1, 2}));
  EXPECT_NEAR(mid.x, 2.0 * std::cos(M_PI / 4), 1e-12);
  EXPECT_NEAR(mid.y, 2.0 * std::sin(M_PI / 4), 1e-12);
}

TEST(ShapingTest, TrapezoidParallelInterpolation) {
  // NTAPRW=-2: widths 9, 5, 1. Shape bottom onto [0,8], apex at (4,4).
  const std::vector<Subdivision> subs{make(1, 1, 1, 9, 3, -2)};
  Assembly a = assemble(subs);
  shape(subs,
        {{1,
          {line(1, 1, 9, 1, {0, 0}, {8, 0}),
           line(5, 3, 5, 3, {4, 4}, {4, 4})}}},
        a);
  // The middle row (5 nodes) spans the midline between base and apex.
  const Vec2 left = a.mesh.pos(mesh_helpers::node_at(a, GridPoint{3, 2}));
  const Vec2 right = a.mesh.pos(mesh_helpers::node_at(a, GridPoint{7, 2}));
  EXPECT_NEAR(left.y, 2.0, 1e-12);
  EXPECT_NEAR(right.y, 2.0, 1e-12);
  EXPECT_NEAR(left.x, 2.0, 1e-12);
  EXPECT_NEAR(right.x, 6.0, 1e-12);
}

TEST(ShapingTest, NeighborLocatedSideCountsAsLocated) {
  // Second subdivision gives only its own top row; its bottom row was
  // located while shaping the first (Hint 6).
  const std::vector<Subdivision> subs{make(1, 1, 1, 3, 3), make(2, 1, 3, 3, 5)};
  Assembly a = assemble(subs);
  EXPECT_NO_THROW(shape(subs,
                        {{1,
                          {line(1, 1, 3, 1, {0, 0}, {4, 0}),
                           line(1, 3, 3, 3, {0, 2}, {4, 2})}},
                         {2, {line(1, 5, 3, 5, {0, 5}, {4, 5})}}},
                        a));
  EXPECT_EQ(a.mesh.pos(mesh_helpers::node_at(a, GridPoint{2, 4})),
            (Vec2{2, 3.5}));
}

TEST(ShapingTest, LocatedNodesAreNeverMoved) {
  // The shared row keeps the coordinates given by the first subdivision
  // even though the second interpolates across it.
  const std::vector<Subdivision> subs{make(1, 1, 1, 3, 3), make(2, 1, 3, 3, 5)};
  Assembly a = assemble(subs);
  shape(subs,
        {{1,
          {line(1, 1, 3, 1, {0, 0}, {4, 0}),
           line(1, 3, 3, 3, {0, 2}, {4, 2})}},
         {2, {line(1, 5, 3, 5, {0, 8}, {4, 8})}}},
        a);
  EXPECT_EQ(a.mesh.pos(mesh_helpers::node_at(a, GridPoint{2, 3})),
            (Vec2{2, 2}));
}

TEST(ShapingTest, MissingOppositePairThrows) {
  const std::vector<Subdivision> subs{make(1, 1, 1, 3, 3)};
  Assembly a = assemble(subs);
  // Only the bottom side given: no complete opposite pair.
  EXPECT_THROW(
      shape(subs, {{1, {line(1, 1, 3, 1, {0, 0}, {4, 0})}}}, a),
      Error);
}

TEST(ShapingTest, AdjacentSidesDoNotFormAPair) {
  const std::vector<Subdivision> subs{make(1, 1, 1, 3, 3)};
  Assembly a = assemble(subs);
  EXPECT_THROW(shape(subs,
                     {{1,
                       {line(1, 1, 3, 1, {0, 0}, {4, 0}),
                        line(1, 1, 1, 3, {0, 0}, {0, 2})}}},
               a),
               Error);
}

TEST(ShapingTest, RunOutsideSubdivisionThrows) {
  const std::vector<Subdivision> subs{make(1, 1, 1, 3, 3)};
  Assembly a = assemble(subs);
  EXPECT_THROW(
      shape(subs, {{1, {line(1, 1, 5, 1, {0, 0}, {4, 0})}}}, a),
      Error);
}

TEST(ShapingTest, UnknownSubdivisionIdThrows) {
  const std::vector<Subdivision> subs{make(1, 1, 1, 3, 3)};
  Assembly a = assemble(subs);
  EXPECT_THROW(shape(subs, {{7, {line(1, 1, 3, 1, {0, 0}, {4, 0})}}}, a),
               Error);
}

TEST(ShapingTest, DuplicateSpecThrows) {
  const std::vector<Subdivision> subs{make(1, 1, 1, 3, 3)};
  Assembly a = assemble(subs);
  EXPECT_THROW(shape(subs,
                     {{1, {line(1, 1, 3, 1, {0, 0}, {4, 0})}},
                      {1, {line(1, 3, 3, 3, {0, 2}, {4, 2})}}},
                     a),
               Error);
}

TEST(ShapingTest, PreferOwnCardsWhenBothPairsLocated) {
  // All four sides located by own cards; the parallel (bottom/top) pair has
  // more card hits, so interpolation follows it and the arc sides survive.
  const std::vector<Subdivision> subs{make(1, 1, 1, 5, 3)};
  Assembly a = assemble(subs);
  shape(subs,
        {{1,
          {line(1, 1, 5, 1, {0, 0}, {8, 0}),
           line(1, 3, 5, 3, {0, 4}, {8, 4}),
           line(1, 1, 1, 3, {0, 0}, {0, 4}, 12.0),
           line(5, 1, 5, 3, {8, 0}, {8, 4}, 12.0)}}},
        a);
  // Side midpoints bulge off the straight line (the arc was honoured).
  const Vec2 lm = a.mesh.pos(mesh_helpers::node_at(a, GridPoint{1, 2}));
  EXPECT_GT(std::abs(lm.x - 0.0), 0.05);
}

TEST(ShapingTest, UnequalNodeSpacingPropagatesInward) {
  // Bottom row crowded toward the left via two line segments with
  // different spacing (Hint 5); the crowding shows up in interior rows.
  const std::vector<Subdivision> subs{make(1, 1, 1, 5, 3)};
  Assembly a = assemble(subs);
  shape(subs,
        {{1,
          {line(1, 1, 3, 1, {0, 0}, {1, 0}),      // dense: spacing 0.5
           line(3, 1, 5, 1, {1, 0}, {8, 0}),      // sparse: spacing 3.5
           line(1, 3, 3, 3, {0, 4}, {1, 4}),
           line(3, 3, 5, 3, {1, 4}, {8, 4})}}},
        a);
  const Vec2 mid_row_second =
      a.mesh.pos(mesh_helpers::node_at(a, GridPoint{2, 2}));
  EXPECT_NEAR(mid_row_second.x, 0.5, 1e-12);
  EXPECT_NEAR(mid_row_second.y, 2.0, 1e-12);
}

TEST(ShapingTest, ReportCountsCoverAllNodes) {
  const std::vector<Subdivision> subs{make(1, 1, 1, 4, 4)};
  Assembly a = assemble(subs);
  const ShapingReport rep = shape(
      subs,
      {{1,
        {line(1, 1, 4, 1, {0, 0}, {3, 0}), line(1, 4, 4, 4, {0, 3}, {3, 3})}}},
      a);
  EXPECT_EQ(rep.nodes_from_cards + rep.nodes_interpolated, 16);
}

TEST(ShapingTest, TriangleSubdivisionPointSide) {
  // General Restriction 4: the point of a triangular subdivision is
  // located as if it were a line (degenerate card).
  const std::vector<Subdivision> subs{make(1, 1, 1, 5, 9, 0, +1)};
  Assembly a = assemble(subs);
  EXPECT_NO_THROW(shape(subs,
                        {{1,
                          {line(1, 5, 1, 5, {0, 4}, {0, 4}),
                           line(5, 1, 5, 9, {4, 0}, {4, 8})}}},
                        a));
  EXPECT_EQ(a.mesh.pos(mesh_helpers::node_at(a, GridPoint{1, 5})),
            (Vec2{0, 4}));
  EXPECT_TRUE(mesh_helpers::validate(a.mesh).ok());
}

TEST(ShapingTest, ArcRespectsLimitOverride) {
  const std::vector<Subdivision> subs{make(1, 1, 1, 3, 3)};
  Assembly a = assemble(subs);
  Limits relaxed = Limits::paper();
  relaxed.max_arc_subtended_deg = 180.0;
  // 120-degree arc: rejected under paper limits, accepted when relaxed.
  const std::vector<ShapingSpec> specs{
      {1,
       {line(1, 1, 1, 3, {1, 0}, {-0.5, std::sqrt(3.0) / 2}, 1.0),
        line(3, 1, 3, 3, {4, 0}, {-2, std::sqrt(3.0) * 2}, 4.0)}}};
  {
    Assembly b = assemble(subs);
    EXPECT_THROW(shape(subs, specs, b), Error);
  }
  EXPECT_NO_THROW(shape(subs, specs, a, relaxed));
}

}  // namespace
}  // namespace feio::idlz
