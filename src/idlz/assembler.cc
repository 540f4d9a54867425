#include "idlz/assembler.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "util/cancel.h"
#include "util/fault.h"
#include "util/guard.h"

namespace feio::idlz {
namespace {

// Triangulates every strip pair of one subdivision into `mesh`, appending
// the new element ids to `elements`. `nodes` holds the subdivision's node
// ids in grid_points() order, strip after strip.
void triangulate_subdivision(const Subdivision& sub,
                             const std::vector<int>& nodes,
                             DiagonalStyle diagonals, mesh::TriMesh& mesh,
                             std::vector<int>& elements) {
  size_t first = 0;  // position of strip s's first node in `nodes`
  for (int s = 0; s + 1 < sub.strip_count(); ++s) {
    std::vector<int> lower;
    std::vector<double> lower_pos;
    std::vector<int> upper;
    std::vector<double> upper_pos;
    for (int which = 0; which < 2; ++which) {
      const int st = s + which;
      auto& chain = which == 0 ? lower : upper;
      auto& chain_pos = which == 0 ? lower_pos : upper_pos;
      const int w = sub.strip_width(st);
      for (int jn = 0; jn < w; ++jn) {
        const GridPoint gp = sub.strip_node(st, jn);
        chain.push_back(nodes[first + static_cast<size_t>(jn)]);
        chain_pos.push_back(
            static_cast<double>(sub.is_col_trapezoid() ? gp.l : gp.k));
      }
      if (which == 0) first += static_cast<size_t>(w);
    }
    triangulate_strip(lower, lower_pos, upper, upper_pos, mesh, &elements,
                      diagonals);
  }
}

}  // namespace

Limits Limits::unlimited() {
  Limits l;
  const int big = std::numeric_limits<int>::max() / 4;
  l.max_subdivisions = big;
  l.max_elements = big;
  l.max_nodes = big;
  l.max_k = big;
  l.max_l = big;
  l.max_arc_subtended_deg = 180.0;
  return l;
}

void triangulate_strip(const std::vector<int>& bottom,
                       const std::vector<double>& bottom_pos,
                       const std::vector<int>& top,
                       const std::vector<double>& top_pos,
                       mesh::TriMesh& mesh, std::vector<int>* new_elements,
                       DiagonalStyle diagonals) {
  FEIO_ASSERT(bottom.size() == bottom_pos.size());
  FEIO_ASSERT(top.size() == top_pos.size());
  if (bottom.size() < 2 && top.size() < 2) return;  // nothing to fill
  FEIO_ASSERT(!bottom.empty() && !top.empty());

  // Merge the two chains left to right. Advancing the bottom chain emits
  // triangle (b_i, b_{i+1}, t_j); advancing the top chain emits
  // (b_i, t_{j+1}, t_j). A tie means a square cell: kUniform always
  // advances the top chain first (the "/" diagonal of the paper's
  // rectangle plots, symmetric fans on trapezoid slants); kAlternating
  // flips the choice cell by cell for the union-jack pattern.
  size_t i = 0;
  size_t j = 0;
  bool top_first = true;
  const double inf = std::numeric_limits<double>::infinity();
  while (i + 1 < bottom.size() || j + 1 < top.size()) {
    const double next_b = i + 1 < bottom.size() ? bottom_pos[i + 1] : inf;
    const double next_t = j + 1 < top.size() ? top_pos[j + 1] : inf;
    const bool tie = next_t == next_b;
    const bool advance_top = tie ? top_first : next_t < next_b;
    if (tie && diagonals == DiagonalStyle::kAlternating) {
      top_first = !top_first;
    }
    int e = -1;
    if (advance_top) {
      e = mesh.add_element(bottom[i], top[j + 1], top[j]);
      ++j;
    } else {
      e = mesh.add_element(bottom[i], bottom[i + 1], top[j]);
      ++i;
    }
    if (new_elements != nullptr) new_elements->push_back(e);
  }
}

Assembly assemble(const std::vector<Subdivision>& subdivisions,
                  const Limits& limits, DiagonalStyle diagonals) {
  FEIO_REQUIRE(!subdivisions.empty(), "no subdivisions given");
  FEIO_REQUIRE(static_cast<int>(subdivisions.size()) <= limits.max_subdivisions,
               "more than " + std::to_string(limits.max_subdivisions) +
                   " subdivisions (Table 2 restriction)");

  Assembly out;
  out.subdivision_nodes.resize(subdivisions.size());
  out.subdivision_elements.resize(subdivisions.size());

  // Subdivision numbers are how shaping cards address subdivisions; they
  // must be unique.
  std::set<int> ids;
  for (const Subdivision& sub : subdivisions) {
    FEIO_REQUIRE(ids.insert(sub.id).second,
                 "duplicate subdivision number " + std::to_string(sub.id));
  }

  // Pass 1: validate every subdivision, then number nodes subdivision by
  // subdivision. Shared nodes get the id of the first subdivision (in deck
  // order) that covers their grid point.
  for (const Subdivision& sub : subdivisions) {
    sub.validate();
    if (sub.k2 > limits.max_k || sub.l2 > limits.max_l) {
      fail("integer coordinates exceed the " + std::to_string(limits.max_k) +
               " x " + std::to_string(limits.max_l) +
               " grid (Table 2 restriction)",
           "subdivision " + std::to_string(sub.id));
    }
  }

  // Admission guard, before any node allocation: the grid bounding boxes
  // overestimate the final node count (shared grid points dedup), so a
  // deck that passes here can at worst allocate what it declared.
  FEIO_FAULT("idlz.assemble");
  std::int64_t estimated_nodes = 0;
  for (const Subdivision& sub : subdivisions) {
    estimated_nodes += static_cast<std::int64_t>(sub.k2 - sub.k1 + 1) *
                       static_cast<std::int64_t>(sub.l2 - sub.l1 + 1);
  }
  util::guard_check_dofs(estimated_nodes, "assemblage nodes (estimated)");

  // Number the nodes without a map: sort the (grid point, position) pairs
  // of every subdivision's grid_points(), in deck order. A point's pairs
  // sort together, first position first, and its node is numbered at that
  // position, so a shared node gets the id of the first subdivision (in
  // deck order) that covers its grid point.
  std::vector<std::pair<GridPoint, int>> slots;
  for (size_t si = 0; si < subdivisions.size(); ++si) {
    FEIO_CHECK_CANCEL("idlz.assemble.number");
    for (const GridPoint& gp : subdivisions[si].grid_points()) {
      out.subdivision_nodes[si].push_back(static_cast<int>(slots.size()));
      slots.emplace_back(gp, static_cast<int>(slots.size()));
    }
  }
  const std::vector<std::pair<GridPoint, int>> points = slots;
  std::sort(slots.begin(), slots.end());
  // node[pos]: the first position of its point, then that point's node.
  std::vector<int> node(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    const bool repeat = i > 0 && slots[i].first == slots[i - 1].first;
    node[static_cast<size_t>(slots[i].second)] =
        repeat ? node[static_cast<size_t>(slots[i - 1].second)]
               : slots[i].second;
  }
  for (size_t pos = 0; pos < node.size(); ++pos) {
    const GridPoint gp = points[pos].first;
    const auto first = static_cast<size_t>(node[pos]);
    if (first < pos) {
      node[pos] = node[first];
      continue;
    }
    node[pos] = out.mesh.add_node(
        {static_cast<double>(gp.k), static_cast<double>(gp.l)});
    out.grid_of.push_back(gp);
  }
  for (std::vector<int>& ids : out.subdivision_nodes) {
    for (int& n : ids) n = node[static_cast<size_t>(n)];
  }
  FEIO_REQUIRE(out.mesh.num_nodes() <= limits.max_nodes,
               "assemblage has " + std::to_string(out.mesh.num_nodes()) +
                   " nodes, exceeding the allowed " +
                   std::to_string(limits.max_nodes) + " (Table 2 restriction)");

  // Pass 2: create elements strip pair by strip pair.
  for (size_t si = 0; si < subdivisions.size(); ++si) {
    triangulate_subdivision(subdivisions[si], out.subdivision_nodes[si],
                            diagonals, out.mesh, out.subdivision_elements[si]);
  }
  FEIO_REQUIRE(
      out.mesh.num_elements() <= limits.max_elements,
      "assemblage has " + std::to_string(out.mesh.num_elements()) +
          " elements, exceeding the allowed " +
          std::to_string(limits.max_elements) + " (Table 2 restriction)");

  out.mesh.orient_ccw();
  out.topology = mesh::Topology(out.mesh);
  out.mesh.classify_boundary(out.topology);
  return out;
}

}  // namespace feio::idlz
