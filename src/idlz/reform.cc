#include "idlz/reform.h"

#include <algorithm>
#include <array>
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

double tri_min_angle(Vec2 a, Vec2 b, Vec2 c) {
  return std::min({geom::interior_angle(c, a, b), geom::interior_angle(a, b, c),
                   geom::interior_angle(b, c, a)});
}

// Computes current and flipped min angles for the quad (s1, p1, s2, p2).
// `flipped_valid` is false when the flipped diagonal would leave the quad
// (non-convex) — flipping then would create overlapping triangles.
void flip_angles(const mesh::TriMesh& mesh, int s1, int s2, int p1, int p2,
                 double& current, double& flipped, bool& flipped_valid) {
  const Vec2 vs1 = mesh.pos(s1);
  const Vec2 vs2 = mesh.pos(s2);
  const Vec2 vp1 = mesh.pos(p1);
  const Vec2 vp2 = mesh.pos(p2);

  current = std::min(tri_min_angle(vs1, vs2, vp1), tri_min_angle(vs1, vs2, vp2));
  flipped = std::min(tri_min_angle(vp1, vp2, vs1), tri_min_angle(vp1, vp2, vs2));

  // Convexity: s1 and s2 must lie on opposite sides of the new diagonal
  // p1-p2, and p1/p2 on opposite sides of s1-s2 (they are, by construction
  // of a valid mesh, but shaping can collapse geometry — check anyway).
  const double a1 = geom::signed_area2(vp1, vp2, vs1);
  const double a2 = geom::signed_area2(vp1, vp2, vs2);
  const double b1 = geom::signed_area2(vs1, vs2, vp1);
  const double b2 = geom::signed_area2(vs1, vs2, vp2);
  flipped_valid = (a1 * a2 < 0.0) && (b1 * b2 < 0.0);
}

}  // namespace

bool flip_improves(const mesh::TriMesh& mesh, int e1, int e2, double tol) {
  int s1, s2, p1, p2;
  if (!quad_of(mesh, e1, e2, s1, s2, p1, p2)) return false;
  double current, flipped;
  bool valid;
  flip_angles(mesh, s1, s2, p1, p2, current, flipped, valid);
  return valid && flipped > current + tol;
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
      double current, flipped;
      bool valid;
      flip_angles(mesh, s1, s2, p1, p2, current, flipped, valid);
      if (!valid || flipped <= current + opts.improvement_tol) continue;

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
