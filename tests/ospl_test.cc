#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "cards/card_io.h"
#include "mesh/topology.h"
#include "ospl/contour.h"
#include "ospl/deck.h"
#include "ospl/interval.h"
#include "ospl/labels.h"
#include "ospl/ospl.h"
#include "scenarios/scenarios.h"
#include "util/error.h"
#include "util/metrics.h"

namespace feio::ospl {
namespace {

using geom::Vec2;

// ---- Appendix D: automatic interval --------------------------------------

TEST(IntervalTest, PaperExample) {
  // "if the largest and smallest values to be plotted are 50000 psi and
  // 10000 psi, the determined interval would be 2500 psi."
  EXPECT_DOUBLE_EQ(auto_interval(10000.0, 50000.0), 2500.0);
}

TEST(IntervalTest, BaseProductsOnly) {
  // "The procedure results in intervals of 1.0, 2.5, 5.0, 10.0, 25.0,
  // 50.0, etc."
  for (double range : {3.0, 17.0, 42.0, 99.0, 1234.0, 7.5e5, 0.004}) {
    const double d = auto_interval(0.0, range);
    const double mant = d / std::pow(10.0, std::floor(std::log10(d)));
    EXPECT_TRUE(std::abs(mant - 1.0) < 1e-9 || std::abs(mant - 2.5) < 1e-9 ||
                std::abs(mant - 5.0) < 1e-9)
        << "range " << range << " gave " << d;
  }
}

TEST(IntervalTest, AtMostTwentyLevels) {
  for (double range : {1.0, 9.99, 10.0, 10.01, 333.0, 1e6, 2.3e-3}) {
    const double d = auto_interval(100.0, 100.0 + range);
    EXPECT_GE(d, 0.05 * range - 1e-12) << range;
    EXPECT_LE(range / d, 20.0 + 1e-9) << range;
  }
}

TEST(IntervalTest, EmptyRangeGivesZero) {
  EXPECT_DOUBLE_EQ(auto_interval(5.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(auto_interval(5.0, 4.0), 0.0);
}

TEST(IntervalTest, ExactBaseProductTarget) {
  // 5% of range exactly equals a base product: it is chosen.
  EXPECT_DOUBLE_EQ(auto_interval(0.0, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(auto_interval(0.0, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(auto_interval(0.0, 200.0), 10.0);
}

TEST(IntervalTest, LowestContourIsMultipleOfDelta) {
  // Figure 12: values span 5..32, interval 10, lines at 10, 20, 30.
  EXPECT_DOUBLE_EQ(lowest_contour(5.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(lowest_contour(-25.0, 10.0), -20.0);
  EXPECT_DOUBLE_EQ(lowest_contour(20.0, 10.0), 20.0);  // already a multiple
}

TEST(IntervalTest, ContourLevels) {
  const auto levels = contour_levels(5.0, 32.0, 10.0);
  EXPECT_EQ(levels, (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(IntervalTest, ContourLevelsIncludeEndpointMultiples) {
  const auto levels = contour_levels(10.0, 30.0, 10.0);
  EXPECT_EQ(levels.size(), 3u);
}

TEST(IntervalTest, ContourLevelsEmptyOnBadDelta) {
  EXPECT_TRUE(contour_levels(0.0, 10.0, 0.0).empty());
  EXPECT_TRUE(contour_levels(0.0, 10.0, -1.0).empty());
}

TEST(IntervalTest, ContourLevelClamp) {
  EXPECT_EQ(contour_levels(0.0, 1e9, 1.0, 50).size(), 50u);
}

TEST(IntervalTest, LargeOffsetKeepsLastLevel) {
  // Regression: with level += delta accumulation, drift on a 1e5 offset
  // pushed the 5th level past the delta-relative cutoff and dropped it.
  const auto levels = contour_levels(1e5, 1e5 + 0.4, 0.1);
  ASSERT_EQ(levels.size(), 5u);
  EXPECT_NEAR(levels.back(), 1e5 + 0.4, 1e-6);
}

TEST(IntervalTest, LargeOffsetLevelsAreExactMultiples) {
  // Every level must be lowest + k*delta to machine precision relative to
  // the value magnitude — accumulation used to lose ~1e-10 per step.
  const auto levels = contour_levels(1e6, 1e6 + 1.0, 0.1);
  ASSERT_EQ(levels.size(), 11u);
  const double lowest = lowest_contour(1e6, 0.1);
  for (size_t k = 0; k < levels.size(); ++k) {
    EXPECT_NEAR(levels[k], lowest + static_cast<double>(k) * 0.1, 1e-7)
        << "level " << k;
    if (k > 0) {
      EXPECT_GT(levels[k], levels[k - 1]) << "duplicate at " << k;
    }
  }
}

TEST(IntervalTest, NegativeOffsetKeepsLastLevel) {
  const auto levels = contour_levels(-1e5 - 0.4, -1e5, 0.1);
  ASSERT_EQ(levels.size(), 5u);
  EXPECT_NEAR(levels.front(), -1e5 - 0.4, 1e-6);
  EXPECT_NEAR(levels.back(), -1e5, 1e-6);
}

// ---- Figure 12: per-element contouring -----------------------------------

// Triangle with values 5, 15, 32 (like the paper's ABC example): interval
// 10 puts lines 10, 20, 30 through it.
class Figure12Test : public ::testing::Test {
 protected:
  const OsplCase concept_ = scenarios::fig12_concept();
  const mesh::TriMesh& mesh_ = concept_.mesh;
  const std::vector<double>& values_ = concept_.values;
};

TEST_F(Figure12Test, ThreeContoursPass) {
  const auto segs =
      extract_contours(mesh_, values_, {10.0, 20.0, 30.0});
  EXPECT_EQ(segs.size(), 3u);
}

TEST_F(Figure12Test, ConceptCaseDrawsTenTwentyThirty) {
  const OsplResult r = run(concept_);
  EXPECT_EQ(r.levels, (std::vector<double>{10.0, 20.0, 30.0}));  // paper
  EXPECT_EQ(r.segments.size(), 3u);  // one straight line per level
}

TEST_F(Figure12Test, LevelOutsideRangeSkipped) {
  EXPECT_TRUE(extract_contours(mesh_, values_, {40.0}).empty());
  EXPECT_TRUE(extract_contours(mesh_, values_, {4.0}).empty());
}

TEST_F(Figure12Test, InterpolationIsLinear) {
  std::vector<ContourSegment> segs;
  element_contour(mesh_, values_, 0, 10.0, segs);
  ASSERT_EQ(segs.size(), 1u);
  // Level 10 crosses edge 0-1 (5..15) at t=0.5 and edge 0-2 (5..32) at
  // t=5/27.
  const Vec2 on01{5.0, 0.0};
  const Vec2 on02 = geom::lerp({0, 0}, {4, 8}, 5.0 / 27.0);
  const bool match_a = geom::almost_equal(segs[0].a, on01, 1e-9) &&
                       geom::almost_equal(segs[0].b, on02, 1e-9);
  const bool match_b = geom::almost_equal(segs[0].a, on02, 1e-9) &&
                       geom::almost_equal(segs[0].b, on01, 1e-9);
  EXPECT_TRUE(match_a || match_b);
}

TEST_F(Figure12Test, EndpointsRememberEdges) {
  std::vector<ContourSegment> segs;
  element_contour(mesh_, values_, 0, 20.0, segs);
  ASSERT_EQ(segs.size(), 1u);
  const std::set<mesh::Edge> edges{segs[0].edge_a, segs[0].edge_b};
  EXPECT_TRUE(edges.count(mesh::Edge(1, 2)));  // 15..32 crosses 20
  EXPECT_TRUE(edges.count(mesh::Edge(0, 2)));  // 5..32 crosses 20
}

TEST_F(Figure12Test, LevelThroughVertexConsistent) {
  // Exactly at a corner value: the half-open rule still yields 0 or 2
  // crossings, never 1.
  std::vector<ContourSegment> segs;
  element_contour(mesh_, values_, 0, 15.0, segs);
  EXPECT_EQ(segs.size(), 1u);
}

TEST(ContourTest, FlatTriangleProducesNothing) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  std::vector<ContourSegment> segs;
  element_contour(m, {7.0, 7.0, 7.0}, 0, 7.0, segs);
  EXPECT_TRUE(segs.empty());
}

TEST(ContourTest, LevelAtSingleCornerMaximumEmitsNothing) {
  // Regression: when a contour level equals the element's maximum at
  // exactly one corner, both half-open crossings collapse onto that vertex
  // (t = 0 on one edge, t = 1 on the other) and a zero-length segment was
  // emitted.
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  std::vector<ContourSegment> segs;
  element_contour(m, {0.0, 0.0, 1.0}, 0, 1.0, segs);
  EXPECT_TRUE(segs.empty());
  // Same through the per-level range filter of extract_contours.
  EXPECT_TRUE(extract_contours(m, {0.0, 0.0, 1.0}, {1.0}).empty());
}

TEST(ContourTest, LevelAtSingleCornerMinimumStillCrosses) {
  // The mirrored case — level equals the minimum at one corner — is a real
  // crossing under the half-open rule (the corner sits on the "above" side)
  // and must keep producing a full-length segment.
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  std::vector<ContourSegment> segs;
  element_contour(m, {0.0, 1.0, 1.0}, 0, 0.0, segs);
  EXPECT_TRUE(segs.empty());  // all corners >= level: no below side
  segs.clear();
  element_contour(m, {0.0, 1.0, 2.0}, 0, 1.0, segs);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_NE(segs[0].a, segs[0].b);
}

TEST(ContourTest, ContinuityAcrossSharedEdge) {
  // Two triangles sharing an edge: the contour's crossing point on the
  // shared edge is identical from both sides.
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({2, 0});
  m.add_node({2, 2});
  m.add_node({0, 2});
  m.add_element(0, 1, 2);
  m.add_element(0, 2, 3);
  const std::vector<double> vals{0.0, 10.0, 20.0, 10.0};
  const auto segs = extract_contours(m, vals, {5.0});
  ASSERT_EQ(segs.size(), 2u);
  // Each segment has one end on the shared edge (0,2); those ends agree.
  const mesh::Edge shared(0, 2);
  std::vector<Vec2> on_shared;
  for (const auto& s : segs) {
    if (s.edge_a == shared) on_shared.push_back(s.a);
    if (s.edge_b == shared) on_shared.push_back(s.b);
  }
  ASSERT_EQ(on_shared.size(), 2u);
  EXPECT_TRUE(geom::almost_equal(on_shared[0], on_shared[1], 1e-12));
}

TEST(ContourTest, ValueCountMismatchThrows) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  EXPECT_THROW(extract_contours(m, {1.0, 2.0}, {0.5}), Error);
}

// ---- Clipping -------------------------------------------------------------

TEST(ClipTest, InsideUntouched) {
  ContourSegment s;
  s.a = {1, 1};
  s.b = {2, 2};
  s.edge_a = mesh::Edge(0, 1);
  ASSERT_TRUE(clip_segment({{0, 0}, {4, 4}}, s));
  EXPECT_EQ(s.a, (Vec2{1, 1}));
  EXPECT_EQ(s.edge_a, mesh::Edge(0, 1));
}

TEST(ClipTest, OutsideRejected) {
  ContourSegment s;
  s.a = {5, 5};
  s.b = {6, 6};
  EXPECT_FALSE(clip_segment({{0, 0}, {4, 4}}, s));
}

TEST(ClipTest, StraddlingClipped) {
  ContourSegment s;
  s.a = {-2, 1};
  s.b = {2, 1};
  s.edge_a = mesh::Edge(0, 1);
  s.edge_b = mesh::Edge(1, 2);
  ASSERT_TRUE(clip_segment({{0, 0}, {4, 4}}, s));
  EXPECT_EQ(s.a, (Vec2{0, 1}));
  EXPECT_EQ(s.b, (Vec2{2, 1}));
  EXPECT_LT(s.edge_a.a, 0);                  // clipped end loses its edge
  EXPECT_EQ(s.edge_b, mesh::Edge(1, 2));     // surviving end keeps it
}

TEST(ClipTest, PointDegenerateOnWindowBoundaryKept) {
  // A zero-length segment exactly on the window edge (and corner): every
  // p[i] is 0, so the parallel-outside rule alone decides. On the boundary
  // all q >= 0 and the point survives unmoved, edges intact.
  ContourSegment s;
  s.a = {0, 2};
  s.b = {0, 2};
  s.edge_a = mesh::Edge(0, 1);
  s.edge_b = mesh::Edge(0, 1);
  ASSERT_TRUE(clip_segment({{0, 0}, {4, 4}}, s));
  EXPECT_EQ(s.a, (Vec2{0, 2}));
  EXPECT_EQ(s.b, (Vec2{0, 2}));
  EXPECT_EQ(s.edge_a, mesh::Edge(0, 1));

  ContourSegment corner;
  corner.a = {4, 4};
  corner.b = {4, 4};
  EXPECT_TRUE(clip_segment({{0, 0}, {4, 4}}, corner));
}

TEST(ClipTest, PointDegenerateOutsideRejected) {
  ContourSegment s;
  s.a = {5, 2};
  s.b = {5, 2};
  EXPECT_FALSE(clip_segment({{0, 0}, {4, 4}}, s));
}

TEST(ClipTest, DiagonalThrough) {
  ContourSegment s;
  s.a = {-1, -1};
  s.b = {5, 5};
  ASSERT_TRUE(clip_segment({{0, 0}, {4, 4}}, s));
  EXPECT_TRUE(geom::almost_equal(s.a, {0, 0}, 1e-12));
  EXPECT_TRUE(geom::almost_equal(s.b, {4, 4}, 1e-12));
}

// ---- Labels ----------------------------------------------------------------

TEST(LabelTest, FormatMatchesPaperStyle) {
  EXPECT_EQ(format_level(12500.0, 0), "+12500.");
  EXPECT_EQ(format_level(-2500.0, 0), "-2500.");
  EXPECT_EQ(format_level(0.0, 0), "0.");
  EXPECT_EQ(format_level(0.5, 2), "+.50");
  EXPECT_EQ(format_level(-0.1, 2), "-.10");
}

TEST(LabelTest, PlacedAtBoundaryIntersections) {
  ContourSegment s;
  s.a = {0, 0};
  s.b = {1, 1};
  s.level = 10.0;
  s.edge_a = mesh::Edge(0, 1);
  s.edge_b = mesh::Edge(2, 3);
  const std::vector<mesh::Edge> boundary{mesh::Edge(0, 1)};
  const LabelResult r =
      place_labels({s}, boundary, {{0, 0}, {10, 10}}, 0);
  ASSERT_EQ(r.accepted.size(), 1u);
  EXPECT_EQ(r.accepted[0].at, (Vec2{0, 0}));
  EXPECT_EQ(r.accepted[0].text, "+10.");
}

TEST(LabelTest, OverlapSuppressed) {
  std::vector<ContourSegment> segs;
  for (int i = 0; i < 3; ++i) {
    ContourSegment s;
    s.a = {0.01 * i, 0.0};
    s.b = {5, 5};
    s.level = 10.0 * (i + 1);
    s.edge_a = mesh::Edge(0, 1);
    segs.push_back(s);
  }
  const std::vector<mesh::Edge> boundary{mesh::Edge(0, 1)};
  const LabelResult r = place_labels(segs, boundary, {{0, 0}, {10, 10}}, 0);
  EXPECT_EQ(r.accepted.size(), 1u);
  EXPECT_EQ(r.suppressed, 2);
}

// Labels closer than 5% of the plot diagonal overlap. On a 3 x 4 plot
// (diagonal 5) two boundary crossings 4.9% of it apart are one label, and
// 5.1% apart two.
TEST(LabelTest, SeparationIsFivePercentOfTheDiagonal) {
  const auto placed = [](double apart) {
    std::vector<ContourSegment> segs;
    for (int i = 0; i < 2; ++i) {
      ContourSegment s;
      s.a = {apart * i, 0.0};
      s.b = {1, 1};
      s.level = 10.0 * (i + 1);
      s.edge_a = mesh::Edge(0, 1);
      segs.push_back(s);
    }
    const std::vector<mesh::Edge> boundary{mesh::Edge(0, 1)};
    return place_labels(segs, boundary, {{0, 0}, {3, 4}}, 0);
  };
  const LabelResult close = placed(0.049 * 5.0);
  EXPECT_EQ(close.accepted.size(), 1u);
  EXPECT_EQ(close.suppressed, 1);
  const LabelResult clear = placed(0.051 * 5.0);
  EXPECT_EQ(clear.accepted.size(), 2u);
  EXPECT_EQ(clear.suppressed, 0);
}

TEST(LabelTest, ZeroContoursAlwaysLabeled) {
  std::vector<ContourSegment> segs;
  for (int i = 0; i < 2; ++i) {
    ContourSegment s;
    s.a = {0.01 * i, 0.0};
    s.b = {5, 5};
    s.level = i == 0 ? 10.0 : 0.0;
    s.edge_a = mesh::Edge(0, 1);
    segs.push_back(s);
  }
  const std::vector<mesh::Edge> boundary{mesh::Edge(0, 1)};
  const LabelResult r = place_labels(segs, boundary, {{0, 0}, {10, 10}}, 0);
  ASSERT_EQ(r.accepted.size(), 2u);  // zero accepted despite overlap
  EXPECT_EQ(r.accepted[1].text, "0.");
}

TEST(LabelTest, DecimalsForInterval) {
  EXPECT_EQ(decimals_for_interval(2500.0), 0);
  EXPECT_EQ(decimals_for_interval(1.0), 0);
  EXPECT_EQ(decimals_for_interval(0.5), 1);
  EXPECT_EQ(decimals_for_interval(0.1), 1);
  EXPECT_EQ(decimals_for_interval(0.25), 2);
  EXPECT_EQ(decimals_for_interval(0.025), 3);
  EXPECT_EQ(decimals_for_interval(0.0), 0);
}

TEST(LabelTest, RunAutoSelectsDecimalsForSmallIntervals) {
  // A unit-pressure-style field spanning -1..1 gets a 0.1 interval whose
  // labels must carry a decimal ("-.50"), matching Figure 17's plots.
  mesh::TriMesh m;
  m.add_node({0, 0}, mesh::BoundaryKind::kBoundarySingle);
  m.add_node({4, 0}, mesh::BoundaryKind::kBoundaryShared);
  m.add_node({0, 4}, mesh::BoundaryKind::kBoundaryShared);
  m.add_node({4, 4}, mesh::BoundaryKind::kBoundarySingle);
  m.add_element(0, 1, 2);
  m.add_element(1, 3, 2);
  OsplCase c;
  c.mesh = m;
  c.values = {-1.0, 0.0, 0.0, 1.0};
  c.delta = 0.5;
  const OsplResult r = run(c);
  ASSERT_FALSE(r.labels.accepted.empty());
  bool found_decimal = false;
  for (const auto& lab : r.labels.accepted) {
    if (lab.text.find('.') != std::string::npos &&
        lab.text.back() != '.') {
      found_decimal = true;
    }
  }
  EXPECT_TRUE(found_decimal);
}

TEST(LabelTest, InteriorEndpointsNotLabeled) {
  ContourSegment s;
  s.a = {0, 0};
  s.b = {1, 1};
  s.level = 10.0;
  s.edge_a = mesh::Edge(0, 1);  // interior edge
  s.edge_b = mesh::Edge(1, 2);  // interior edge
  const LabelResult r = place_labels({s}, {}, {{0, 0}, {10, 10}}, 0);
  EXPECT_TRUE(r.accepted.empty());
}

// ---- run() -----------------------------------------------------------------

mesh::TriMesh grid(int n, std::vector<double>* values) {
  mesh::TriMesh m;
  for (int j = 0; j <= n; ++j) {
    for (int i = 0; i <= n; ++i) {
      m.add_node({static_cast<double>(i), static_cast<double>(j)});
      if (values != nullptr) values->push_back(i + j);  // linear field
    }
  }
  auto id = [n](int i, int j) { return j * (n + 1) + i; };
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      m.add_element(id(i, j), id(i + 1, j), id(i + 1, j + 1));
      m.add_element(id(i, j), id(i + 1, j + 1), id(i, j + 1));
    }
  }
  m.classify_boundary(mesh::Topology(m));
  return m;
}

TEST(OsplRunTest, LinearFieldStraightContours) {
  OsplCase c;
  c.values.clear();
  c.mesh = grid(4, &c.values);
  c.title1 = "LINEAR FIELD";
  c.delta = 1.0;
  const OsplResult r = run(c);
  EXPECT_DOUBLE_EQ(r.delta, 1.0);
  EXPECT_DOUBLE_EQ(r.vmin, 0.0);
  EXPECT_DOUBLE_EQ(r.vmax, 8.0);
  // Contours of x + y are the diagonals: every segment lies on x+y=level.
  for (const ContourSegment& s : r.segments) {
    EXPECT_NEAR(s.a.x + s.a.y, s.level, 1e-9);
    EXPECT_NEAR(s.b.x + s.b.y, s.level, 1e-9);
  }
  EXPECT_FALSE(r.boundary.empty());
  EXPECT_FALSE(r.plot.empty());
}

TEST(OsplRunTest, AutomaticDeltaWhenZero) {
  OsplCase c;
  c.mesh = grid(4, &c.values);
  const OsplResult r = run(c);
  EXPECT_DOUBLE_EQ(r.delta, auto_interval(0.0, 8.0));
}

TEST(OsplRunTest, SubtitleCarriesIntervalCaption) {
  OsplCase c;
  c.mesh = grid(2, &c.values);
  c.delta = 2.5;
  const OsplResult r = run(c);
  EXPECT_NE(r.plot.subtitle().find("CONTOUR INTERVAL IS 2.5"),
            std::string::npos);
}

TEST(OsplRunTest, ZoomWindowClipsAndRescopes) {
  OsplCase c;
  c.mesh = grid(8, &c.values);
  c.window = {{0, 0}, {2, 2}};  // zoom to a corner
  c.delta = 1.0;
  const OsplResult r = run(c);
  // Everything drawn lies inside the window.
  for (const ContourSegment& s : r.segments) {
    EXPECT_TRUE(c.window.inflated(1e-9).contains(s.a));
    EXPECT_TRUE(c.window.inflated(1e-9).contains(s.b));
  }
  // The level range only covers values present in the window.
  EXPECT_LE(r.vmax, 4.0 + 1e-12);
}

TEST(OsplRunTest, BoundaryDrawnFromBoundaryEdges) {
  OsplCase c;
  c.mesh = grid(3, &c.values);
  const OsplResult r = run(c);
  EXPECT_EQ(r.boundary.size(), 12u);
}

TEST(OsplRunTest, Table1Restrictions) {
  OsplCase c;
  c.mesh = grid(30, &c.values);  // 961 nodes > 800, 1800 elements > 1000
  EXPECT_THROW(run(c), Error);
  c.limits = OsplLimits::unlimited();
  EXPECT_NO_THROW(run(c));
}

// Table 1's capacity run: a 24 x 20 grid plots right under the paper's
// limits (1000 elements, 800 nodes).
TEST(OsplRunTest, Table1CapacityCaseRunsAtPaperLimits) {
  const OsplLimits paper;
  EXPECT_EQ(paper.max_elements, 1000);
  EXPECT_EQ(paper.max_nodes, 800);

  OsplCase c;
  const int nx = 24;
  const int ny = 20;
  for (int j = 0; j <= ny; ++j) {
    for (int i = 0; i <= nx; ++i) {
      c.mesh.add_node({static_cast<double>(i), static_cast<double>(j)});
      c.values.push_back(i * j * 0.37 + i);
    }
  }
  auto id = [nx](int i, int j) { return j * (nx + 1) + i; };
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      c.mesh.add_element(id(i, j), id(i + 1, j), id(i + 1, j + 1));
      c.mesh.add_element(id(i, j), id(i + 1, j + 1), id(i, j + 1));
    }
  }
  c.mesh.classify_boundary(mesh::Topology(c.mesh));
  EXPECT_EQ(c.mesh.num_nodes(), 525);
  EXPECT_EQ(c.mesh.num_elements(), 960);
  EXPECT_FALSE(run(c).segments.empty());
}

// One topology build either way: a checked run's validation builds it
// after its element checks and the boundary stage reuses it; an unchecked
// run's boundary stage builds its own.
TEST(OsplRunTest, BuildsTopologyOnce) {
  OsplCase c;
  c.mesh = grid(4, &c.values);
  for (const bool checked : {false, true}) {
    util::MetricsRegistry metrics;
    RunOptions ro;
    ro.metrics = &metrics;
    DiagSink sink;
    if (checked) {
      ASSERT_TRUE(run_checked(c, sink, ro).has_value()) << sink.render_text();
    } else {
      run(c, ro);
    }
    EXPECT_EQ(metrics.snapshot().counters.at("mesh.topology_builds"), 1)
        << (checked ? "checked" : "unchecked");
  }
}

TEST(OsplRunTest, ValueCountMismatchThrows) {
  OsplCase c;
  c.mesh = grid(2, &c.values);
  c.values.pop_back();
  EXPECT_THROW(run(c), Error);
}

TEST(OsplRunTest, EmptyZoomWindowFallsBackToGlobalRange) {
  OsplCase c;
  c.mesh = grid(4, &c.values);
  c.window = {{100.0, 100.0}, {101.0, 101.0}};  // contains no nodes
  const OsplResult r = run(c);
  EXPECT_DOUBLE_EQ(r.vmin, 0.0);
  EXPECT_DOUBLE_EQ(r.vmax, 8.0);
  EXPECT_TRUE(r.segments.empty());  // everything clipped away
}

TEST(OsplRunTest, IntervalCaptionTrimsZeros) {
  EXPECT_EQ(interval_caption(2500.0), "CONTOUR INTERVAL IS 2500.");
  EXPECT_EQ(interval_caption(0.1), "CONTOUR INTERVAL IS 0.1");
  EXPECT_EQ(interval_caption(2.5), "CONTOUR INTERVAL IS 2.5");
}

TEST(OsplRunTest, ConstantFieldPlotsBoundaryOnly) {
  OsplCase c;
  c.mesh = grid(2, nullptr);
  c.values.assign(static_cast<size_t>(c.mesh.num_nodes()), 3.0);
  const OsplResult r = run(c);
  EXPECT_TRUE(r.segments.empty());
  EXPECT_FALSE(r.boundary.empty());
}

// ---- Deck I/O ---------------------------------------------------------------

TEST(OsplDeckTest, RoundTrip) {
  OsplCase c;
  c.mesh = grid(3, &c.values);
  c.title1 = "ROUND TRIP PLOT";
  c.title2 = "SECOND TITLE";
  c.delta = 2.5;
  const std::string deck = write_deck(c);
  const OsplCase rt = read_deck_string(deck);
  EXPECT_EQ(rt.mesh.num_nodes(), c.mesh.num_nodes());
  EXPECT_EQ(rt.mesh.num_elements(), c.mesh.num_elements());
  EXPECT_EQ(rt.title1, c.title1);
  EXPECT_DOUBLE_EQ(rt.delta, 2.5);
  for (int i = 0; i < c.mesh.num_nodes(); ++i) {
    EXPECT_NEAR(rt.values[static_cast<size_t>(i)],
                c.values[static_cast<size_t>(i)], 1e-3);
    EXPECT_EQ(rt.mesh.node(i).boundary, c.mesh.node(i).boundary);
  }
  // And it runs.
  EXPECT_NO_THROW(run(rt));
}

std::string nodal_card(double x, double y, double s, long flag) {
  return cards::encode({x, y, s, flag},
                       cards::Format::parse("(2F9.5,22X,F10.3,I1)"));
}

TEST(OsplDeckTest, BadNodeNumberThrows) {
  std::string deck = cards::encode({3L, 1L, 0.0, 0.0, 0.0, 0.0, 0.0},
                                   cards::Format::parse("(2I5,5F10.4)")) +
                     "\nT1\nT2\n";
  deck += nodal_card(0, 0, 0, 2) + "\n";
  deck += nodal_card(1, 0, 1, 2) + "\n";
  deck += nodal_card(0, 1, 2, 2) + "\n";
  deck += cards::encode({1L, 2L, 9L}, cards::Format::parse("(3I5)")) + "\n";
  EXPECT_THROW(read_deck_string(deck), Error);  // node 9 does not exist
}

TEST(OsplDeckTest, BadBoundaryFlagThrows) {
  std::string deck = cards::encode({1L, 1L, 0.0, 0.0, 0.0, 0.0, 0.0},
                                   cards::Format::parse("(2I5,5F10.4)")) +
                     "\nT1\nT2\n";
  deck += nodal_card(0, 0, 0, 3) + "\n";  // flag 3 is invalid
  EXPECT_THROW(read_deck_string(deck), Error);
}

// Property sweep: the automatic interval always lands within [5%, 12.5%]
// of the range (12.5% = worst case stepping from 2500 down to... up to the
// next base product).
class AutoIntervalSweep : public ::testing::TestWithParam<double> {};

TEST_P(AutoIntervalSweep, WithinExpectedBand) {
  const double range = GetParam();
  const double d = auto_interval(-range / 3.0, range * 2.0 / 3.0);
  EXPECT_GE(d, 0.05 * range * (1 - 1e-9));
  EXPECT_LE(d, 0.125 * range * (1 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Ranges, AutoIntervalSweep,
                         ::testing::Values(1e-6, 0.02, 0.9, 1.0, 3.7, 40.0,
                                           999.0, 4e4, 8.8e7));

}  // namespace
}  // namespace feio::ospl
