#include "idlz/reform.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
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

// Flip decisions need no acos whenever the cosine bounds below clear the
// tolerance by this much, in radians. The bounds' own rounding and libm's
// acos error on two angles stay below 1e-14 rad together.
constexpr double kMargin = 1e-12;

// Cosine of the corner whose arms have dot product `uv` and lengths `nu`,
// `nv`: bit for bit the value geom::interior_angle takes acos of. A
// zero-length arm gives 1, i.e. angle 0.
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

struct FlipTest {
  bool flip = false;
  bool exact = false;  // decided by the acos form
};

// Whether flipping the diagonal s1-s2 of the quad (s1, p1, s2, p2) to p1-p2
// raises the smallest of the six corner angles by more than `tol`, i.e.
// acos(f) > acos(c) + tol in the old min-of-acos form, where c and f are
// the largest corner cosines of the current and the flipped triangulation.
// acos falls with slope at most -1, and at most -1/sqrt(1 - m^2) between c
// and f with m = max(|c|, |f|). So when c > f, c - f and
// (c - f)/sqrt(1 - m^2) bound acos(f) - acos(c) from below and above; when
// f >= c, c - f <= 0 bounds it from above; a flip by the lower bound
// needs tol >= 0, which makes c - f > 0. An edge whose bounds fall within
// kMargin of `tol`, any NaN, and a negative tolerance take the min-of-acos
// form over the same cosines, so no decision relies on libm's acos being
// monotone.
FlipTest test_flip(const mesh::TriMesh& mesh, int s1, int s2, int p1, int p2,
                   double tol) {
  const Vec2 d = mesh.pos(s2) - mesh.pos(s1);  // current diagonal
  const Vec2 e = mesh.pos(p2) - mesh.pos(p1);  // flipped diagonal
  const Vec2 a1 = mesh.pos(p1) - mesh.pos(s1);
  const Vec2 a2 = mesh.pos(p2) - mesh.pos(s1);
  const Vec2 b1 = mesh.pos(p1) - mesh.pos(s2);
  const Vec2 b2 = mesh.pos(p2) - mesh.pos(s2);

  // Convexity: p1 and p2 lie on opposite sides of s1-s2, and s1 and s2 on
  // opposite sides of p1-p2; otherwise the flipped triangles would overlap.
  // These are the products of geom::signed_area2 values: x - y is exactly
  // -(y - x), and negating both factors leaves a product unchanged.
  if (!(geom::cross(e, a1) * geom::cross(e, b1) < 0.0 &&
        geom::cross(d, a1) * geom::cross(d, a2) < 0.0)) {
    return {};
  }

  const double nd = d.norm();
  const double ne = e.norm();
  const double na1 = a1.norm();
  const double na2 = a2.norm();
  const double nb1 = b1.norm();
  const double nb2 = b2.norm();
  using geom::dot;
  // Corners of (s1, s2, p1) and (s1, s2, p2), each at s1, s2, then the
  // private node; an arm pointing into a corner is a stored vector negated,
  // which negates its dot product exactly.
  const std::array<double, 6> current = {
      corner_cos(dot(a1, d), na1, nd),   corner_cos(-dot(d, b1), nd, nb1),
      corner_cos(dot(b1, a1), nb1, na1), corner_cos(dot(a2, d), na2, nd),
      corner_cos(-dot(d, b2), nd, nb2),  corner_cos(dot(b2, a2), nb2, na2)};
  // Corners of (p1, p2, s1) and (p1, p2, s2), each at p1, p2, then s1 or s2.
  const std::array<double, 6> flipped = {
      corner_cos(-dot(a1, e), na1, ne),  corner_cos(dot(e, a2), ne, na2),
      corner_cos(dot(a2, a1), na2, na1), corner_cos(-dot(b1, e), nb1, ne),
      corner_cos(dot(e, b2), ne, nb2),   corner_cos(dot(b2, b1), nb2, nb1)};

  const double c = largest(current);
  const double f = largest(flipped);
  if (tol >= 0.0 && !std::isnan(c) && !std::isnan(f)) {
    const double gap = c - f;
    if (gap > tol + kMargin) return {true, false};
    const double m = std::max(std::abs(c), std::abs(f));
    const double upper =
        gap > 0.0 ? gap / std::sqrt((1.0 - m) * (1.0 + m)) : gap;
    if (upper < tol - kMargin) return {false, false};
  }
  return {min_angle(flipped) > min_angle(current) + tol, true};
}

}  // namespace

bool flip_improves(const mesh::TriMesh& mesh, int e1, int e2, double tol) {
  int s1, s2, p1, p2;
  if (!quad_of(mesh, e1, e2, s1, s2, p1, p2)) return false;
  return test_flip(mesh, s1, s2, p1, p2, tol).flip;
}

ReformReport reform(mesh::TriMesh& mesh, const ReformOptions& opts) {
  ReformReport report;

  for (int pass = 0; pass < opts.max_passes; ++pass) {
    ++report.passes;
    int flips_this_pass = 0;

    // This pass's connectivity. Its interior edges are visited in sorted
    // (min, max) node order; a flip makes it stale for the two elements it
    // rewrites, which then sit out the rest of the pass.
    const mesh::Topology topo(mesh);
    std::vector<char> touched(static_cast<size_t>(mesh.num_elements()), 0);
    for (int id = 0; id < topo.num_edges(); ++id) {
      const std::span<const int> elems = topo.edge_elements(id);
      if (elems.size() != 2) continue;
      const int e1 = elems[0];
      const int e2 = elems[1];
      if (touched[static_cast<size_t>(e1)] || touched[static_cast<size_t>(e2)]) {
        continue;  // connectivity stale after an earlier flip this pass
      }
      int s1, s2, p1, p2;
      if (!quad_of(mesh, e1, e2, s1, s2, p1, p2)) continue;
      const FlipTest test =
          test_flip(mesh, s1, s2, p1, p2, opts.improvement_tol);
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
    if (flips_this_pass == 0) {
      mesh.orient_ccw();
      return report;
    }
  }

  report.converged = false;
  mesh.orient_ccw();
  return report;
}

}  // namespace feio::idlz
