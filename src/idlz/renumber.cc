#include "idlz/renumber.h"

#include <algorithm>

#include "mesh/bandwidth.h"
#include "util/error.h"

namespace feio::idlz {
namespace {

// BFS from `start`; returns level of each node (-1 when unreached) and the
// index of a deepest node.
std::vector<int> bfs_levels(const mesh::Csr& adj, int start, int& deepest) {
  std::vector<int> level(static_cast<size_t>(adj.rows()), -1);
  std::vector<int> queue{start};
  level[static_cast<size_t>(start)] = 0;
  deepest = start;
  for (size_t head = 0; head < queue.size(); ++head) {
    const int n = queue[head];
    for (int nb : adj.row(n)) {
      if (level[static_cast<size_t>(nb)] < 0) {
        level[static_cast<size_t>(nb)] = level[static_cast<size_t>(n)] + 1;
        if (level[static_cast<size_t>(nb)] > level[static_cast<size_t>(deepest)]) {
          deepest = nb;
        }
        queue.push_back(nb);
      }
    }
  }
  return level;
}

// Cuthill–McKee visit order (order[new] = old). Components are ordered one
// after another, each from its pseudo-peripheral node; a node's unvisited
// neighbours join the queue by ascending degree, ties by index.
std::vector<int> cuthill_mckee_order(const mesh::Csr& adj) {
  const int n = adj.rows();
  std::vector<int> order;  // doubles as the BFS queue
  order.reserve(static_cast<size_t>(n));
  std::vector<char> visited(static_cast<size_t>(n), 0);
  auto degree = [&](int i) { return adj.row(i).size(); };

  std::vector<int> nbrs;
  for (int seed = 0; seed < n; ++seed) {
    if (visited[static_cast<size_t>(seed)]) continue;
    const int start =
        adj.row(seed).empty() ? seed : pseudo_peripheral_node(adj, seed);
    visited[static_cast<size_t>(start)] = 1;
    order.push_back(start);
    for (size_t head = order.size() - 1; head < order.size(); ++head) {
      nbrs.clear();
      for (int nb : adj.row(order[head])) {
        if (!visited[static_cast<size_t>(nb)]) nbrs.push_back(nb);
      }
      std::sort(nbrs.begin(), nbrs.end(), [&](int a, int b) {
        const size_t da = degree(a);
        const size_t db = degree(b);
        return da != db ? da < db : a < b;
      });
      for (int nb : nbrs) {
        visited[static_cast<size_t>(nb)] = 1;
        order.push_back(nb);
      }
    }
  }
  FEIO_ASSERT(static_cast<int>(order.size()) == n);
  return order;
}

// perm[old] = new for a visit order, read forwards (CM) or backwards (RCM).
std::vector<int> permutation_of(const std::vector<int>& order, bool reverse) {
  const int n = static_cast<int>(order.size());
  std::vector<int> perm(order.size());
  for (int nu = 0; nu < n; ++nu) {
    perm[static_cast<size_t>(order[static_cast<size_t>(nu)])] =
        reverse ? n - 1 - nu : nu;
  }
  return perm;
}

}  // namespace

int pseudo_peripheral_node(const mesh::Csr& adjacency, int seed) {
  // George–Liu repeated BFS. Each round roots a level structure at
  // `candidate`; while the eccentricity keeps growing, the minimum-degree
  // node of the deepest level becomes the next candidate (the "shrinking
  // strategy" — low degree keeps the next level structure narrow). We
  // return the deepest-level pick of the last structure that grew, whose
  // eccentricity the following round verified. The pre-fix code returned
  // the raw BFS frontier node instead: frontier discovery order is
  // adjacency-list order, so it could land on a high-degree node of the
  // deepest level and seed Cuthill–McKee from a non-peripheral corner.
  int best = seed;
  int depth = -1;
  int candidate = seed;
  for (int iter = 0; iter < 16; ++iter) {
    int far = candidate;
    const std::vector<int> level = bfs_levels(adjacency, candidate, far);
    const int ecc = level[static_cast<size_t>(far)];
    if (ecc <= depth) break;
    depth = ecc;
    int pick = far;
    for (int v = 0; v < adjacency.rows(); ++v) {
      if (level[static_cast<size_t>(v)] != ecc) continue;
      const size_t dv = adjacency.row(v).size();
      const size_t dp = adjacency.row(pick).size();
      if (dv < dp || (dv == dp && v < pick)) pick = v;
    }
    best = pick;
    candidate = pick;
  }
  return best;
}

std::vector<int> cuthill_mckee_permutation(const mesh::Topology& topo,
                                           bool reverse) {
  return permutation_of(cuthill_mckee_order(topo.adjacency()), reverse);
}

RenumberReport renumber(mesh::TriMesh& mesh, const mesh::Topology& topo,
                        NumberingScheme scheme) {
  RenumberReport report;
  report.bandwidth_before = mesh::bandwidth(mesh);
  report.profile_before = mesh::profile(mesh);
  report.bandwidth_after = report.bandwidth_before;
  report.profile_after = report.profile_before;
  if (mesh.num_nodes() == 0) return report;

  // One visit order serves both schemes: RCM is CM read backwards. Each
  // candidate is scored through its permutation, not on a renumbered copy.
  const std::vector<int> order = cuthill_mckee_order(topo.adjacency());
  struct Candidate {
    NumberingScheme scheme;
    std::vector<int> perm;
    int bandwidth = 0;
    long profile = 0;
  };
  std::vector<Candidate> candidates;
  auto add_candidate = [&](NumberingScheme s, bool reverse) {
    Candidate c;
    c.scheme = s;
    c.perm = permutation_of(order, reverse);
    c.bandwidth = mesh::bandwidth(mesh, c.perm);
    c.profile = mesh::profile(mesh, c.perm);
    candidates.push_back(std::move(c));
  };

  if (scheme == NumberingScheme::kCuthillMcKee ||
      scheme == NumberingScheme::kBest) {
    add_candidate(NumberingScheme::kCuthillMcKee, /*reverse=*/false);
  }
  if (scheme == NumberingScheme::kReverseCuthillMcKee ||
      scheme == NumberingScheme::kBest) {
    add_candidate(NumberingScheme::kReverseCuthillMcKee, /*reverse=*/true);
  }

  const Candidate* best = nullptr;
  for (const Candidate& c : candidates) {
    if (best == nullptr || c.bandwidth < best->bandwidth ||
        (c.bandwidth == best->bandwidth && c.profile < best->profile)) {
      best = &c;
    }
  }
  FEIO_ASSERT(best != nullptr);

  const bool improves =
      best->bandwidth < report.bandwidth_before ||
      (best->bandwidth == report.bandwidth_before &&
       best->profile < report.profile_before);
  if (improves) {
    mesh.renumber_nodes(best->perm);
    report.bandwidth_after = best->bandwidth;
    report.profile_after = best->profile;
    report.used = best->scheme;
    report.applied = true;
    report.permutation = best->perm;
  }
  return report;
}

}  // namespace feio::idlz
