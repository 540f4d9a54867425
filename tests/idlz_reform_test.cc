#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numbers>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "idlz/assembler.h"
#include "idlz/idlz.h"
#include "idlz/reform.h"
#include "mesh/quality.h"
#include "mesh/topology.h"
#include "mesh/validate.h"
#include "mesh_helpers.h"
#include "scenarios/pipeline_bench.h"
#include "scenarios/scenarios.h"

namespace feio::idlz {
namespace {

using geom::Vec2;

constexpr double kDegPerRad = 180.0 / std::numbers::pi;

// Quad with a bad diagonal: (0,0),(4,0),(4,1),(0,1) split through the long
// diagonal gives skinny triangles; the flip shortens it.
mesh::TriMesh bad_quad() {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({4, 0.5});
  m.add_node({8, 0});
  m.add_node({4, -0.5});
  // Diagonal 0-2 (long) instead of 1-3 (short).
  m.add_element(0, 2, 1);
  m.add_element(0, 3, 2);
  m.orient_ccw();
  return m;
}

TEST(FlipImprovesTest, DetectsBadDiagonal) {
  const mesh::TriMesh m = bad_quad();
  EXPECT_TRUE(flip_improves(m, 0, 1, 1e-9));
}

TEST(FlipImprovesTest, GoodDiagonalStays) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({1, 1});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  m.add_element(0, 2, 3);
  // A square's diagonals are equivalent: no strict improvement.
  EXPECT_FALSE(flip_improves(m, 0, 1, 1e-9));
}

TEST(FlipImprovesTest, NonAdjacentElementsFalse) {
  mesh::TriMesh m;
  for (int i = 0; i < 6; ++i) {
    m.add_node({static_cast<double>(i % 3) + (i / 3) * 10.0,
                static_cast<double>(i / 3)});
  }
  m.add_element(0, 1, 2);
  m.add_element(3, 4, 5);
  EXPECT_FALSE(flip_improves(m, 0, 1, 1e-9));
}

TEST(ReformTest, FlipsBadQuad) {
  mesh::TriMesh m = bad_quad();
  const double before = mesh::summarize_quality(m).min_angle_rad;
  mesh::Topology topo(m);
  const ReformReport rep = reform(m, topo);
  EXPECT_EQ(rep.flips, 1);
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(mesh::summarize_quality(m).min_angle_rad, before);
  EXPECT_TRUE(mesh_helpers::validate(m).ok());
  // The new diagonal connects nodes 1 and 3.
  int diag13 = 0;
  for (int e = 0; e < 2; ++e) {
    const auto& n = m.element(e).n;
    const bool has1 = n[0] == 1 || n[1] == 1 || n[2] == 1;
    const bool has3 = n[0] == 3 || n[1] == 3 || n[2] == 3;
    if (has1 && has3) ++diag13;
  }
  EXPECT_EQ(diag13, 2);
}

TEST(ReformTest, PreservesCounts) {
  mesh::TriMesh m = bad_quad();
  mesh::Topology topo(m);
  reform(m, topo);
  EXPECT_EQ(m.num_nodes(), 4);
  EXPECT_EQ(m.num_elements(), 2);
}

TEST(ReformTest, NoFlipsOnGoodMesh) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0.5, 0.9});
  m.add_node({1.5, 0.9});
  m.add_element(0, 1, 2);
  m.add_element(1, 3, 2);
  mesh::Topology topo(m);
  const ReformReport rep = reform(m, topo);
  EXPECT_EQ(rep.flips, 0);
  EXPECT_EQ(rep.passes, 1);
}

TEST(ReformTest, NonConvexQuadNeverFlipped) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({4, 0});
  m.add_node({4, 4});
  m.add_node({3.2, 1.2});  // reflex vertex: quad 0-1-2-3 is non-convex
  m.add_element(0, 1, 3);
  m.add_element(1, 2, 3);
  m.orient_ccw();
  mesh::Topology topo(m);
  const ReformReport rep = reform(m, topo);
  EXPECT_EQ(rep.flips, 0);
  EXPECT_TRUE(mesh_helpers::validate(m).ok());
}

TEST(ReformTest, Figure10NeedlesImprove) {
  // The paper's Figure 10: the skewed trapezoid's initial elements have
  // needle-like corners; reform removes the worst of them.
  const IdlzResult after = run(scenarios::fig10_needle_trapezoid());

  const auto qb = mesh::summarize_quality(after.before_reform);
  const auto qa = mesh::summarize_quality(after.mesh);
  EXPECT_GT(after.reform.flips, 0);
  // The apex corner's own angle is fixed by the boundary, so the worst
  // single element may not move; the population of needles does.
  EXPECT_GT(qa.mean_min_angle_rad, qb.mean_min_angle_rad);
  // Ablation A2. The paper shows the needle corners removed, no count.
  EXPECT_EQ(qb.needle_count, 14);
  EXPECT_EQ(qa.needle_count, 6);
  EXPECT_NEAR(qb.mean_min_angle_rad * kDegPerRad, 11.6, 0.05);
  EXPECT_NEAR(qa.mean_min_angle_rad * kDegPerRad, 28.2, 0.05);
  EXPECT_GE(qa.min_angle_rad, qb.min_angle_rad - 1e-12);
  EXPECT_EQ(after.before_reform.num_elements(), after.mesh.num_elements());
  EXPECT_TRUE(mesh_helpers::validate(after.mesh).ok());
}

TEST(ReformTest, Figure9HatchReformKeepsMeshValid) {
  IdlzCase c = scenarios::fig09_dsrv_hatch();
  const IdlzResult r = run(c);
  EXPECT_TRUE(r.reform.converged);
  EXPECT_TRUE(mesh_helpers::validate(r.mesh).ok());
  // Reform only ever improves the worst angle: 11.3 -> 14.3 degrees over
  // 43 flips here.
  EXPECT_GE(mesh::summarize_quality(r.mesh).min_angle_rad,
            mesh::summarize_quality(r.before_reform).min_angle_rad);
  EXPECT_EQ(r.reform.flips, 43);
  EXPECT_NEAR(mesh::summarize_quality(r.before_reform).min_angle_rad *
                  kDegPerRad,
              11.3, 0.05);
  EXPECT_NEAR(mesh::summarize_quality(r.mesh).min_angle_rad * kDegPerRad,
              14.3, 0.05);
  // Ablation A2: needles before reform, then after. The paper shows the
  // hatch before and after reform and gives no count.
  EXPECT_EQ(mesh::summarize_quality(r.before_reform).needle_count, 30);
  EXPECT_EQ(mesh::summarize_quality(r.mesh).needle_count, 7);
  // Alternating diagonals at element creation halve the needles reform
  // has to repair.
  c.options.diagonals = DiagonalStyle::kAlternating;
  EXPECT_EQ(mesh::summarize_quality(run(c).before_reform).needle_count, 16);
}

// Reform across the whole idealization gallery: never loses elements,
// never degrades the worst angle, always converges. Each figure's exact
// (passes, flips) is pinned too: any change to the flip decision moves at
// least one of them.
class ReformSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReformSweep, MonotoneQuality) {
  struct Pin {
    const char* id;
    int passes;
    int flips;
  };
  static constexpr Pin kPins[] = {
      {"fig01", 3, 12}, {"fig02", 2, 16}, {"fig03a", 1, 0}, {"fig03b", 1, 0},
      {"fig03c", 1, 0}, {"fig03d", 1, 0}, {"fig04a", 1, 0}, {"fig04b", 1, 0},
      {"fig04c", 1, 0}, {"fig04d", 1, 0}, {"fig05", 4, 9},  {"fig06", 2, 32},
      {"fig07", 2, 24}, {"fig08", 2, 27}, {"fig09", 2, 43}, {"fig10", 3, 8},
      {"fig11", 1, 0},  {"fig14", 1, 0},  {"fig15", 1, 0},  {"fig16", 1, 0},
      {"fig18", 1, 0},  {"kirsch", 5, 28},
  };
  const auto cases = scenarios::all_idealizations();
  ASSERT_EQ(cases.size(), std::size(kPins));
  const size_t i = static_cast<size_t>(GetParam());
  const auto& nc = cases[i];
  ASSERT_EQ(nc.id, kPins[i].id);
  const IdlzResult r = run(nc.c);
  EXPECT_TRUE(r.reform.converged) << nc.id;
  EXPECT_GE(mesh::summarize_quality(r.mesh).min_angle_rad,
            mesh::summarize_quality(r.before_reform).min_angle_rad - 1e-12)
      << nc.id;
  EXPECT_EQ(r.mesh.num_elements(), r.before_reform.num_elements()) << nc.id;
  EXPECT_TRUE(mesh_helpers::validate(r.mesh).ok()) << nc.id;
  EXPECT_EQ(r.reform.passes, kPins[i].passes) << nc.id;
  EXPECT_EQ(r.reform.flips, kPins[i].flips) << nc.id;
}

INSTANTIATE_TEST_SUITE_P(AllFigures, ReformSweep,
                         ::testing::Range(0, 22));

// The strip mesh perfbench's strip_large op idealizes: one pass, no flips,
// and almost every edge decided without acos.
TEST(ReformTest, StripMeshReformsInOnePassWithoutFlips) {
  const IdlzResult r = run(scenarios::strip_case(60, 150, 10));
  EXPECT_EQ(r.reform.passes, 1);
  EXPECT_EQ(r.reform.flips, 0);
  EXPECT_TRUE(r.reform.converged);
  EXPECT_EQ(r.reform.edges, 26790);
  EXPECT_LE(r.reform.exact_edges * 100, r.reform.edges);
}

// ---- Differential decision test ----------------------------------------
//
// The min-of-acos flip test reform used before it compared corner cosines,
// kept here as the reference: flip_improves must agree with it on every
// edge and at every tolerance.

double reference_angle(Vec2 a, Vec2 b, Vec2 c) {
  const Vec2 u = a - b;
  const Vec2 v = c - b;
  const double nu = u.norm();
  const double nv = v.norm();
  if (nu == 0.0 || nv == 0.0) return 0.0;
  return std::acos(std::clamp(geom::dot(u, v) / (nu * nv), -1.0, 1.0));
}

double reference_tri_min_angle(Vec2 a, Vec2 b, Vec2 c) {
  return std::min({reference_angle(c, a, b), reference_angle(a, b, c),
                   reference_angle(b, c, a)});
}

// The old decision's tolerance-free part: whether the quad is convex, and
// the current and flipped min angles.
struct ReferenceQuad {
  bool adjacent_convex = false;
  double current = 0.0;
  double flipped = 0.0;
  bool flips(double tol) const {
    return adjacent_convex && flipped > current + tol;
  }
};

ReferenceQuad reference_quad(const mesh::TriMesh& m, int e1, int e2) {
  const auto& a = m.element(e1).n;
  const auto& b = m.element(e2).n;
  std::vector<int> shared;
  for (int na : a) {
    for (int nb : b) {
      if (na == nb) shared.push_back(na);
    }
  }
  if (shared.size() != 2) return {};
  const int s1 = shared[0];
  const int s2 = shared[1];
  int p1 = -1;
  int p2 = -1;
  for (int na : a) {
    if (na != s1 && na != s2) p1 = na;
  }
  for (int nb : b) {
    if (nb != s1 && nb != s2) p2 = nb;
  }
  if (p1 < 0 || p2 < 0 || p1 == p2) return {};
  const Vec2 vs1 = m.pos(s1);
  const Vec2 vs2 = m.pos(s2);
  const Vec2 vp1 = m.pos(p1);
  const Vec2 vp2 = m.pos(p2);
  ReferenceQuad q;
  q.current = std::min(reference_tri_min_angle(vs1, vs2, vp1),
                       reference_tri_min_angle(vs1, vs2, vp2));
  q.flipped = std::min(reference_tri_min_angle(vp1, vp2, vs1),
                       reference_tri_min_angle(vp1, vp2, vs2));
  q.adjacent_convex = geom::signed_area2(vp1, vp2, vs1) *
                              geom::signed_area2(vp1, vp2, vs2) <
                          0.0 &&
                      geom::signed_area2(vs1, vs2, vp1) *
                              geom::signed_area2(vs1, vs2, vp2) <
                          0.0;
  return q;
}

constexpr double kTols[] = {0.0, 1e-12, 1e-9, 1e-6, 0.05};

struct Disagreements {
  std::array<int, std::size(kTols)> at_tol{};
  long long checked = 0;
  long long reference_flips = 0;

  void check(const mesh::TriMesh& m, int e1, int e2) {
    const ReferenceQuad ref = reference_quad(m, e1, e2);
    for (size_t t = 0; t < std::size(kTols); ++t) {
      const bool expected = ref.flips(kTols[t]);
      at_tol[t] += flip_improves(m, e1, e2, kTols[t]) != expected;
      reference_flips += expected;
      ++checked;
    }
  }

  void expect_none(const std::string& what) const {
    for (size_t t = 0; t < std::size(kTols); ++t) {
      EXPECT_EQ(at_tol[t], 0) << what << " at tol " << kTols[t];
    }
  }
};

TEST(FlipDecisionDifferentialTest, EveryGalleryAndStripEdgeAgrees) {
  std::vector<std::pair<std::string, mesh::TriMesh>> meshes;
  for (const auto& nc : scenarios::all_idealizations()) {
    meshes.emplace_back(nc.id, run(nc.c).before_reform);
  }
  meshes.emplace_back("strip",
                      run(scenarios::strip_case(60, 150, 10)).before_reform);
  long long edges = 0;
  for (const auto& [id, m] : meshes) {
    Disagreements d;
    const mesh::Topology topo(m);
    for (int edge = 0; edge < topo.num_edges(); ++edge) {
      const std::span<const int> elems = topo.edge_elements(edge);
      if (elems.size() != 2) continue;
      d.check(m, elems[0], elems[1]);
      ++edges;
    }
    d.expect_none(id);
  }
  EXPECT_GT(edges, 29000);
}

// SplitMix64: a fixed, portable stream, so the quads are the same on every
// platform.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double in(double lo, double hi) { return lo + (hi - lo) * unit(); }
  int below(int n) { return static_cast<int>(next() % static_cast<unsigned>(n)); }
};

using Quad = std::array<Vec2, 4>;

Quad random_quad(Rng& rng) {
  const double scale = std::ldexp(1.0, rng.below(41) - 20);
  Quad q;
  for (Vec2& p : q) p = Vec2{rng.in(-1, 1), rng.in(-1, 1)} * scale;
  return q;
}

// A w x h cell at an offset: both diagonals give the same angles exactly,
// so the computed ones tie or differ by rounding alone.
Quad rectangle_cell(Rng& rng) {
  const double w = std::ldexp(rng.in(0.1, 1), rng.below(21) - 10);
  const double h = rng.below(4) == 0 ? w : w * rng.in(0.05, 20);
  const double ox = rng.below(2) == 0 ? std::floor(rng.in(-1000, 1000))
                                      : rng.in(-1e4, 1e4);
  const double oy = rng.in(-1e4, 1e4);
  return {Vec2{ox, oy}, Vec2{ox + w, oy}, Vec2{ox + w, oy + h},
          Vec2{ox, oy + h}};
}

// A unit square with corners moved by up to 2^-k: the two diagonals' min
// angles differ by about that much, down to the last bits.
Quad jittered_square(Rng& rng) {
  const double jitter = std::ldexp(1.0, -1 - rng.below(55));
  Quad q = {Vec2{0, 0}, Vec2{1, 0}, Vec2{1, 1}, Vec2{0, 1}};
  for (Vec2& p : q) p += Vec2{rng.in(-1, 1), rng.in(-1, 1)} * jitter;
  return q;
}

// Corners on a 3 x 3 lattice: coincident nodes (zero-length sides) and
// collinear triples are common.
Quad lattice_quad(Rng& rng) {
  Quad q;
  for (Vec2& p : q) {
    p = {static_cast<double>(rng.below(3)), static_cast<double>(rng.below(3))};
  }
  return q;
}

// Long thin quads whose angles approach 0 and pi, where the cosine bound
// is steepest.
Quad needle_quad(Rng& rng) {
  const double len = std::ldexp(1.0, rng.below(11) - 5);
  const double thin = len * std::ldexp(1.0, -4 - rng.below(45));
  const double mid = rng.in(0.05, 0.95) * len;
  return {Vec2{0, 0}, Vec2{mid, -thin * rng.in(0.1, 2)}, Vec2{len, 0},
          Vec2{rng.in(0.05, 0.95) * len, thin * rng.in(0.1, 2)}};
}

TEST(FlipDecisionDifferentialTest, SeededQuadsAgreeAtEveryTolerance) {
  struct Family {
    const char* name;
    Quad (*make)(Rng&);
    bool ties;  // both diagonals always give the same min angle
  };
  constexpr Family kFamilies[] = {{"random", random_quad, false},
                                  {"rectangle", rectangle_cell, true},
                                  {"jittered square", jittered_square, false},
                                  {"lattice", lattice_quad, false},
                                  {"needle", needle_quad, false}};
  constexpr int kPerFamily = 40000;
  mesh::TriMesh m;
  for (int i = 0; i < 4; ++i) m.add_node({0, 0});
  m.add_element(0, 1, 2);
  m.add_element(0, 2, 3);
  Rng rng{20261019};
  for (const Family& family : kFamilies) {
    Disagreements d;
    for (int i = 0; i < kPerFamily; ++i) {
      Quad q = family.make(rng);
      // Rotate the labels so either diagonal can be the current one.
      std::rotate(q.begin(), q.begin() + rng.below(4), q.end());
      for (int n = 0; n < 4; ++n) m.set_pos(n, q[static_cast<size_t>(n)]);
      d.check(m, 0, 1);
    }
    d.expect_none(family.name);
    // Every other family makes both decisions.
    if (!family.ties) {
      EXPECT_GT(d.reference_flips, 0) << family.name;
    }
    EXPECT_LT(d.reference_flips, d.checked) << family.name;
  }
}

// Quads with some nodes near the top of the double range: the dot
// products and length products of their long arms overflow, so some corner
// cosines are NaN (inf / inf) while the short arms' stay finite. Those
// edges, and quads with an infinite coordinate, still get the reference's
// answer.
TEST(FlipDecisionDifferentialTest, NonFiniteCosinesAgree) {
  mesh::TriMesh m;
  for (int i = 0; i < 4; ++i) m.add_node({0, 0});
  m.add_element(0, 1, 2);
  m.add_element(0, 2, 3);
  Rng rng{7};
  Disagreements d;
  for (int i = 0; i < 4000; ++i) {
    Quad q;
    if (i % 2 == 0) {
      // A kite with one far tip: every corner at the tip has two long arms
      // and a NaN cosine, and the other corners are finite.
      q = {Vec2{-std::ldexp(rng.in(1, 2), 1000 + rng.below(23)),
                rng.in(-1, 1)},
           Vec2{rng.in(-1, 1), -rng.in(1, 2)},
           Vec2{rng.in(0.5, 3), rng.in(-1, 1)},
           Vec2{rng.in(-1, 1), rng.in(1, 2)}};
    } else {
      for (Vec2& p : q) {
        p = {rng.in(-1, 1), rng.in(-1, 1)};
        if (rng.below(2) == 0) p *= std::ldexp(1.0, 1000 + rng.below(24));
      }
    }
    if (i % 10 == 1) {
      q[static_cast<size_t>(rng.below(4))].x =
          std::numeric_limits<double>::infinity();
    }
    std::rotate(q.begin(), q.begin() + rng.below(4), q.end());
    for (int n = 0; n < 4; ++n) m.set_pos(n, q[static_cast<size_t>(n)]);
    d.check(m, 0, 1);
  }
  d.expect_none("overflowing quads");
  EXPECT_GT(d.reference_flips, 0);
}

// Random, jittered and needle quads scaled by 2^k so that some squared
// lengths underflow or overflow while hypot's lengths stay accurate: the
// sqrt-form bounds do not hold there, so these edges take hypot lengths and
// must still get the reference's answer.
TEST(FlipDecisionDifferentialTest, QuadsWithUnderflowingOrOverflowingSquares) {
  constexpr Quad (*kMakers[])(Rng&) = {random_quad, jittered_square,
                                       needle_quad};
  mesh::TriMesh m;
  for (int i = 0; i < 4; ++i) m.add_node({0, 0});
  m.add_element(0, 1, 2);
  m.add_element(0, 2, 3);
  Rng rng{13};
  Disagreements d;
  for (int i = 0; i < 30000; ++i) {
    Quad q = kMakers[i % 3](rng);
    const int k = i % 2 == 0 ? -540 + rng.below(40) : 490 + rng.below(40);
    for (Vec2& p : q) p *= std::ldexp(1.0, k);
    std::rotate(q.begin(), q.begin() + rng.below(4), q.end());
    for (int n = 0; n < 4; ++n) m.set_pos(n, q[static_cast<size_t>(n)]);
    d.check(m, 0, 1);
  }
  d.expect_none("scaled quads");
  EXPECT_GT(d.reference_flips, 0);
}

// ---- Differential pass test --------------------------------------------
//
// The reform loop before it kept its topology, kept as the reference: it
// rebuilds the topology every pass and tests every interior edge. reform()
// tests only the edges next to the previous pass's flips after its first
// pass, and must still flip the same edges in every pass.

// The shared and private nodes of two edge-adjacent elements, in the order
// reform's flip writes them.
bool reference_quad_nodes(const mesh::TriMesh& m, int e1, int e2, int& s1,
                          int& s2, int& p1, int& p2) {
  const auto& a = m.element(e1).n;
  const auto& b = m.element(e2).n;
  std::array<int, 2> shared{};
  int count = 0;
  for (int na : a) {
    for (int nb : b) {
      if (na == nb) {
        if (count < 2) shared[static_cast<size_t>(count)] = na;
        ++count;
      }
    }
  }
  if (count != 2) return false;
  s1 = shared[0];
  s2 = shared[1];
  p1 = p2 = -1;
  for (int na : a) {
    if (na != s1 && na != s2) p1 = na;
  }
  for (int nb : b) {
    if (nb != s1 && nb != s2) p2 = nb;
  }
  return p1 >= 0 && p2 >= 0 && p1 != p2;
}

struct ReferenceReform {
  std::vector<int> pass_flips;
  bool converged = true;
};

ReferenceReform reference_reform(mesh::TriMesh& m) {
  ReferenceReform out;
  for (int pass = 0; pass < 50; ++pass) {
    int flips = 0;
    const mesh::Topology topo(m);
    std::vector<char> touched(static_cast<size_t>(m.num_elements()), 0);
    for (int id = 0; id < topo.num_edges(); ++id) {
      const std::span<const int> elems = topo.edge_elements(id);
      if (elems.size() != 2) continue;
      const int e1 = elems[0];
      const int e2 = elems[1];
      if (touched[static_cast<size_t>(e1)] || touched[static_cast<size_t>(e2)]) {
        continue;
      }
      int s1, s2, p1, p2;
      if (!reference_quad_nodes(m, e1, e2, s1, s2, p1, p2) ||
          !flip_improves(m, e1, e2, 1e-9)) {
        continue;
      }
      m.element(e1).n = {p1, p2, s1};
      m.element(e2).n = {p1, p2, s2};
      touched[static_cast<size_t>(e1)] = 1;
      touched[static_cast<size_t>(e2)] = 1;
      ++flips;
    }
    out.pass_flips.push_back(flips);
    if (flips == 0) {
      m.orient_ccw();
      return out;
    }
  }
  out.converged = false;
  m.orient_ccw();
  return out;
}

// Reforms `before` both ways and expects the same flips in every pass, the
// same final corners, and reform's topology to be that of its result.
// Returns the number of passes.
int expect_reform_matches_reference(const mesh::TriMesh& before,
                                    const std::string& what) {
  mesh::TriMesh want = before;
  const ReferenceReform ref = reference_reform(want);
  mesh::TriMesh got = before;
  mesh::Topology topo(got);
  const ReformReport rep = reform(got, topo);
  EXPECT_EQ(rep.pass_flips, ref.pass_flips) << what;
  EXPECT_EQ(rep.passes, static_cast<int>(ref.pass_flips.size())) << what;
  EXPECT_EQ(rep.converged, ref.converged) << what;
  EXPECT_EQ(got.elements(), want.elements()) << what;
  mesh_helpers::expect_topology_of(topo, got);
  return rep.passes;
}

TEST(ReformDifferentialTest, GalleryMeshesFlipAsTheFullSweepDid) {
  int multi_pass = 0;
  for (const auto& nc : scenarios::all_idealizations()) {
    multi_pass += expect_reform_matches_reference(run(nc.c).before_reform,
                                                  nc.id) > 2;
  }
  EXPECT_EQ(multi_pass, 4);  // fig01, fig05, fig10 and kirsch
}

// A fan from the last of 121 points on a parabola: each pass's flips
// enable the next ones, and reform stops at its 50-pass limit unconverged,
// still flipping as the full sweep did and handing back the topology of
// the mesh it stopped at.
TEST(ReformDifferentialTest, UnconvergedFanStopsAsTheFullSweepDid) {
  constexpr int kLast = 120;
  mesh::TriMesh fan;
  for (int i = 0; i <= kLast; ++i) {
    const double t = static_cast<double>(i) / kLast;
    fan.add_node({t, -t * t});
  }
  for (int i = 0; i + 1 < kLast; ++i) fan.add_element(kLast, i, i + 1);
  fan.orient_ccw();
  EXPECT_EQ(expect_reform_matches_reference(fan, "fan"), 50);
  mesh::Topology topo(fan);
  EXPECT_FALSE(reform(fan, topo).converged);
}

// Stretches an assembled grid of square cells by 1-4x along x and moves
// every node by up to 0.1-0.3 of a cell: the needles this makes take
// several passes to reform.
mesh::TriMesh jittered(const std::vector<Subdivision>& subs, Rng& rng) {
  Assembly a = assemble(subs, Limits::unlimited(),
                        rng.below(2) == 0 ? DiagonalStyle::kUniform
                                          : DiagonalStyle::kAlternating);
  const double stretch = rng.in(1.0, 4.0);
  const double jitter = rng.in(0.1, 0.3);
  for (int n = 0; n < a.mesh.num_nodes(); ++n) {
    const Vec2 p = a.mesh.pos(n);
    a.mesh.set_pos(n, Vec2{p.x * stretch + rng.in(-jitter, jitter) * stretch,
                           p.y + rng.in(-jitter, jitter)});
  }
  for (int e = 0; e < a.mesh.num_elements(); ++e) {
    EXPECT_GT(a.mesh.signed_area(e), 0.0);
  }
  return a.mesh;
}

Subdivision rectangle(int id, int k1, int l1, int k2, int l2) {
  Subdivision sub;
  sub.id = id;
  sub.k1 = k1;
  sub.l1 = l1;
  sub.k2 = k2;
  sub.l2 = l2;
  return sub;
}

TEST(ReformDifferentialTest, JitteredGridsFlipAsTheFullSweepDid) {
  Rng rng{20261020};
  int three_pass = 0;
  for (int i = 0; i < 40; ++i) {
    const int k2 = 4 + rng.below(12);
    const int l2 = 3 + rng.below(10);
    const Subdivision sub = rectangle(1, 1, 1, k2, l2);
    three_pass += expect_reform_matches_reference(
                      jittered({sub}, rng), "grid " + std::to_string(i)) >= 3;
  }
  EXPECT_GE(three_pass, 20);  // 28 of the 40, taking 3 to 8 passes
}

// Two overlapping rectangles share their overlap's grid points, so their
// elements overlap there and some edges have three or four elements. The
// skip needs no manifold mesh, so reform still flips as the full sweep.
TEST(ReformDifferentialTest, OverlappingSubdivisionsFlipAsTheFullSweepDid) {
  Rng rng{20261021};
  int non_manifold = 0;
  int multi_pass = 0;
  for (int i = 0; i < 40; ++i) {
    const int k2 = 4 + rng.below(6);
    const int l2 = 4 + rng.below(6);
    const int k1 = 2 + rng.below(k2 - 2);
    const int l1 = 2 + rng.below(l2 - 2);
    const int width = 2 + rng.below(6);
    const int height = 2 + rng.below(6);
    const Subdivision a = rectangle(1, 1, 1, k2, l2);
    const Subdivision b = rectangle(2, k1, l1, k1 + width, l1 + height);
    const mesh::TriMesh m = jittered({a, b}, rng);
    const mesh::Topology topo(m);
    bool over = false;
    for (int id = 0; id < topo.num_edges(); ++id) {
      over |= topo.edge_elements(id).size() > 2;
    }
    non_manifold += over;
    multi_pass +=
        expect_reform_matches_reference(m, "overlap " + std::to_string(i)) >=
        2;
  }
  EXPECT_GE(non_manifold, 35);  // all 40 here
  EXPECT_GE(multi_pass, 35);    // all 40 here
}

}  // namespace
}  // namespace feio::idlz
