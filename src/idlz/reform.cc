#include "idlz/reform.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "geom/vec2.h"
#include "mesh/topology.h"
#include "util/error.h"

namespace feio::idlz {
namespace {

using geom::Vec2;

// Finds the two shared nodes and the two opposite (private) nodes of a pair
// of edge-adjacent triangles. Returns false when they do not share exactly
// one edge.
bool quad_of(const mesh::TriMesh& mesh, int e1, int e2, int& s1, int& s2,
             int& p1, int& p2) {
  const auto& a = mesh.element(e1).n;
  const auto& b = mesh.element(e2).n;
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

// Reform flips only when the min angle improves by more than this
// (radians), which guards against alternation on symmetric quads.
constexpr double kImprovementTol = 1e-9;
constexpr int kMaxPasses = 50;

// Flip decisions need no acos whenever the cosine bounds below clear the
// tolerance by this much, in radians. The bounds' own rounding and libm's
// acos error on two angles stay below 1e-14 rad together.
constexpr double kMargin = 1e-12;

// How far a corner cosine from sqrt(x*x + y*y) lengths can lie from the
// one from hypot lengths. Such a length is within 2u of the exact one
// (u = 2^-53) and glibc's hypot within 1 ulp, so through the product of
// two lengths and the quotient a cosine moves by at most 12u, under
// 1.4e-15. That holds while every squared length is normal and finite
// with room for the products: within (kMinSq, kMaxSq).
constexpr double kSqrtCosErr = 1e-14;
constexpr double kMinSq = 0x1p-968;
constexpr double kMaxSq = 0x1p968;

// Cosine of the corner whose arms have dot product `uv` and lengths `nu`,
// `nv`: with hypot lengths, bit for bit the value geom::interior_angle
// takes acos of. A zero-length arm gives 1, i.e. angle 0.
double corner_cos(double uv, double nu, double nv) {
  if (nu == 0.0 || nv == 0.0) return 1.0;
  return std::clamp(uv / (nu * nv), -1.0, 1.0);
}

// The largest of six cosines, or NaN when any of them is NaN.
double largest(const std::array<double, 6>& cosines) {
  double m = cosines[0];
  for (const double x : cosines) {
    if (std::isnan(x) || x > m) m = x;
  }
  return m;
}

// min over the six corners of acos(cosine): the old min-angle formula,
// taking the corners in its order, so that a NaN lands where it did.
double min_angle(const std::array<double, 6>& c) {
  return std::min(std::min({std::acos(c[0]), std::acos(c[1]), std::acos(c[2])}),
                  std::min({std::acos(c[3]), std::acos(c[4]), std::acos(c[5])}));
}

// A quad (s1, p1, s2, p2) as its current diagonal d = s1->s2, its flipped
// diagonal e = p1->p2, and its sides a1 = s1->p1, a2 = s1->p2, b1 = s2->p1,
// b2 = s2->p2. Lengths holds their lengths in the same order.
struct Quad {
  Vec2 d, e, a1, a2, b1, b2;
};
using Lengths = std::array<double, 6>;

// The corner cosines of the current triangulation, (s1, s2, p1) and
// (s1, s2, p2), each at s1, s2, then the private node; and of the flipped
// one, (p1, p2, s1) and (p1, p2, s2), each at p1, p2, then s1 or s2. An
// arm pointing into a corner is a stored vector negated, which negates its
// dot product exactly.
struct Cosines {
  std::array<double, 6> current;
  std::array<double, 6> flipped;
};

Cosines cosines(const Quad& q, const Lengths& n) {
  using geom::dot;
  const auto [nd, ne, na1, na2, nb1, nb2] = n;
  return {{corner_cos(dot(q.a1, q.d), na1, nd),
           corner_cos(-dot(q.d, q.b1), nd, nb1),
           corner_cos(dot(q.b1, q.a1), nb1, na1),
           corner_cos(dot(q.a2, q.d), na2, nd),
           corner_cos(-dot(q.d, q.b2), nd, nb2),
           corner_cos(dot(q.b2, q.a2), nb2, na2)},
          {corner_cos(-dot(q.a1, q.e), na1, ne),
           corner_cos(dot(q.e, q.a2), ne, na2),
           corner_cos(dot(q.a2, q.a1), na2, na1),
           corner_cos(-dot(q.b1, q.e), nb1, ne),
           corner_cos(dot(q.e, q.b2), ne, nb2),
           corner_cos(dot(q.b2, q.b1), nb2, nb1)}};
}

// The flip decision from the bounds on acos(f) - acos(c), where c and f
// are the largest corner cosines of the current and the flipped
// triangulation, each within `err` of the cosines the acos form takes.
// acos falls with slope at most -1, and at most -1/sqrt(1 - m^2) between
// c and f with m = max(|c|, |f|). So when c > f, c - f and
// (c - f)/sqrt(1 - m^2) bound acos(f) - acos(c) from below and above; when
// f >= c, c - f <= 0 bounds it from above; a flip by the lower bound
// needs tol >= 0, which makes c - f > 0. Widening c - f by 2 err and m by
// err keeps both bounds on the acos form's cosines. No decision when the
// bounds fall within kMargin of `tol`, for any NaN, or for a negative
// tolerance.
std::optional<bool> bounds_decide(const Cosines& k, double tol, double err) {
  const double c = largest(k.current);
  const double f = largest(k.flipped);
  if (!(tol >= 0.0) || std::isnan(c) || std::isnan(f)) return std::nullopt;
  const double gap = c - f;
  if (gap - 2.0 * err > tol + kMargin) return true;
  const double m = std::max(std::abs(c), std::abs(f)) + err;
  const double wide = gap + 2.0 * err;
  const double upper =
      wide > 0.0 ? wide / std::sqrt((1.0 - m) * (1.0 + m)) : wide;
  if (upper < tol - kMargin) return false;
  return std::nullopt;
}

struct FlipTest {
  bool flip = false;
  bool exact = false;  // decided by the acos form
};

// Whether flipping the diagonal s1-s2 of the quad (s1, p1, s2, p2) to p1-p2
// raises the smallest of the six corner angles by more than `tol`, i.e.
// acos(f) > acos(c) + tol in the old min-of-acos form over cosines from
// hypot lengths. The bounds first take sqrt(x*x + y*y) lengths, far
// cheaper than hypot, widened by kSqrtCosErr. Where they give no
// decision, or a squared length leaves (kMinSq, kMaxSq), the cosines are
// recomputed from hypot lengths, and their bounds or else the min-of-acos
// form decide, so no decision relies on libm's acos being monotone and the
// acos form sees the old bits.
FlipTest test_flip(const mesh::TriMesh& mesh, int s1, int s2, int p1, int p2,
                   double tol) {
  const Quad q = {mesh.pos(s2) - mesh.pos(s1), mesh.pos(p2) - mesh.pos(p1),
                  mesh.pos(p1) - mesh.pos(s1), mesh.pos(p2) - mesh.pos(s1),
                  mesh.pos(p1) - mesh.pos(s2), mesh.pos(p2) - mesh.pos(s2)};

  // Convexity: p1 and p2 lie on opposite sides of s1-s2, and s1 and s2 on
  // opposite sides of p1-p2; otherwise the flipped triangles would overlap.
  // These are the products of geom::signed_area2 values: x - y is exactly
  // -(y - x), and negating both factors leaves a product unchanged.
  if (!(geom::cross(q.e, q.a1) * geom::cross(q.e, q.b1) < 0.0 &&
        geom::cross(q.d, q.a1) * geom::cross(q.d, q.a2) < 0.0)) {
    return {};
  }

  const std::array<double, 6> sq = {q.d.norm_sq(),  q.e.norm_sq(),
                                    q.a1.norm_sq(), q.a2.norm_sq(),
                                    q.b1.norm_sq(), q.b2.norm_sq()};
  const auto [lo, hi] = std::minmax_element(sq.begin(), sq.end());
  if (*lo > kMinSq && *hi < kMaxSq) {
    const Lengths n = {std::sqrt(sq[0]), std::sqrt(sq[1]), std::sqrt(sq[2]),
                       std::sqrt(sq[3]), std::sqrt(sq[4]), std::sqrt(sq[5])};
    if (const auto flip = bounds_decide(cosines(q, n), tol, kSqrtCosErr)) {
      return {*flip, false};
    }
  }
  const Cosines k = cosines(q, {q.d.norm(), q.e.norm(), q.a1.norm(),
                                q.a2.norm(), q.b1.norm(), q.b2.norm()});
  if (const auto flip = bounds_decide(k, tol, 0.0)) return {*flip, false};
  return {min_angle(k.flipped) > min_angle(k.current) + tol, true};
}

}  // namespace

bool flip_improves(const mesh::TriMesh& mesh, int e1, int e2, double tol) {
  int s1, s2, p1, p2;
  if (!quad_of(mesh, e1, e2, s1, s2, p1, p2)) return false;
  return test_flip(mesh, s1, s2, p1, p2, tol).flip;
}

ReformReport reform(mesh::TriMesh& mesh, mesh::Topology& topo) {
  ReformReport report;
  std::vector<char> flipped;  // elements the previous pass flipped

  for (int pass = 0; pass < kMaxPasses; ++pass) {
    ++report.passes;
    int flips_this_pass = 0;

    // This pass's connectivity: the caller's in the first pass, rebuilt in
    // each later one. Its interior edges are visited in sorted (min, max)
    // node order; a flip makes it stale for the two elements it rewrites,
    // which then sit out the rest of the pass. A later pass skips the edges
    // of elements the previous pass left alone: node positions never
    // change, so that pass tested them with the same corners and kept them
    // (docs/ALGORITHMS.md, "One topology per mesh state").
    if (pass > 0) topo = mesh::Topology(mesh);
    std::vector<char> touched(static_cast<size_t>(mesh.num_elements()), 0);
    for (int id = 0; id < topo.num_edges(); ++id) {
      const std::span<const int> elems = topo.edge_elements(id);
      if (elems.size() != 2) continue;
      const int e1 = elems[0];
      const int e2 = elems[1];
      if (pass > 0 && !flipped[static_cast<size_t>(e1)] &&
          !flipped[static_cast<size_t>(e2)]) {
        continue;  // kept by the previous pass
      }
      if (touched[static_cast<size_t>(e1)] || touched[static_cast<size_t>(e2)]) {
        continue;  // connectivity stale after an earlier flip this pass
      }
      int s1, s2, p1, p2;
      if (!quad_of(mesh, e1, e2, s1, s2, p1, p2)) continue;
      const FlipTest test = test_flip(mesh, s1, s2, p1, p2, kImprovementTol);
      ++report.edges;
      report.exact_edges += test.exact;
      if (!test.flip) continue;

      mesh.element(e1).n = {p1, p2, s1};
      mesh.element(e2).n = {p1, p2, s2};
      touched[static_cast<size_t>(e1)] = 1;
      touched[static_cast<size_t>(e2)] = 1;
      ++flips_this_pass;
    }

    report.flips += flips_this_pass;
    report.pass_flips.push_back(flips_this_pass);
    if (flips_this_pass == 0) {
      mesh.orient_ccw(&topo);
      return report;
    }
    flipped = std::move(touched);
  }

  report.converged = false;
  topo = mesh::Topology(mesh);
  mesh.orient_ccw(&topo);
  return report;
}

}  // namespace feio::idlz
