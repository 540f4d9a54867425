#include "idlz/smooth.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "mesh/quality.h"
#include "mesh/topology.h"

namespace feio::idlz {

SmoothReport smooth_interior(mesh::TriMesh& mesh,
                             const SmoothOptions& options) {
  SmoothReport report;
  if (mesh.num_nodes() == 0) {
    report.converged = true;
    return report;
  }
  mesh.classify_boundary();
  const mesh::Topology topo(mesh);
  const geom::BBox box = mesh.bounds();
  const double tol =
      options.tolerance_frac * std::hypot(box.width(), box.height());

  // Local quality around node `n`: the worst incident min-angle (first)
  // and the sum of incident min-angles (second). A move must not lower
  // either — guarding only the worst would let a move trade quality of the
  // other incident elements away behind an unchanged bottleneck.
  auto local_quality = [&](int n) {
    double worst = 1e300;
    double sum = 0.0;
    for (int e : topo.elements_of(n)) {
      const double a = mesh::min_angle(mesh, e);
      worst = std::min(worst, a);
      sum += a;
    }
    return std::pair<double, double>{worst, sum};
  };
  auto local_valid = [&](int n) {
    for (int e : topo.elements_of(n)) {
      if (mesh.signed_area(e) <= 0.0) return false;
    }
    return true;
  };

  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++report.passes;
    double max_move = 0.0;
    for (int n = 0; n < mesh.num_nodes(); ++n) {
      if (mesh.node(n).boundary != mesh::BoundaryKind::kInterior) continue;
      const std::span<const int> nbrs = topo.neighbors(n);
      if (nbrs.empty()) continue;

      geom::Vec2 centroid;
      for (int nb : nbrs) centroid += mesh.pos(nb);
      centroid = centroid / static_cast<double>(nbrs.size());

      const geom::Vec2 old_pos = mesh.pos(n);
      const geom::Vec2 new_pos =
          geom::lerp(old_pos, centroid, options.relaxation);
      const auto before = local_quality(n);
      mesh.set_pos(n, new_pos);
      const auto after = local_valid(n) ? local_quality(n)
                                        : std::pair<double, double>{-1, -1};
      if (after.first < before.first - 1e-12 ||
          after.second < before.second - 1e-12) {
        mesh.set_pos(n, old_pos);  // guard: never worsen the local mesh
        ++report.rejected_moves;
        continue;
      }
      ++report.moves;
      max_move = std::max(max_move, geom::distance(old_pos, new_pos));
    }
    if (max_move < tol) {
      report.converged = true;
      return report;
    }
  }
  return report;
}

}  // namespace feio::idlz
