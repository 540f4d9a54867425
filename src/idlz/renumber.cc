#include "idlz/renumber.h"

#include <algorithm>
#include <deque>

#include "mesh/bandwidth.h"
#include "mesh/topology.h"
#include "util/error.h"

namespace feio::idlz {
namespace {

// BFS from `start`; returns level of each node (-1 when unreached) and the
// index of a deepest node.
std::vector<int> bfs_levels(const std::vector<std::vector<int>>& adj,
                            int start, int& deepest) {
  std::vector<int> level(adj.size(), -1);
  std::deque<int> queue{start};
  level[static_cast<size_t>(start)] = 0;
  deepest = start;
  while (!queue.empty()) {
    const int n = queue.front();
    queue.pop_front();
    for (int nb : adj[static_cast<size_t>(n)]) {
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

}  // namespace

int pseudo_peripheral_node(const std::vector<std::vector<int>>& adjacency,
                           int seed) {
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
    for (int v = 0; v < static_cast<int>(adjacency.size()); ++v) {
      if (level[static_cast<size_t>(v)] != ecc) continue;
      const size_t dv = adjacency[static_cast<size_t>(v)].size();
      const size_t dp = adjacency[static_cast<size_t>(pick)].size();
      if (dv < dp || (dv == dp && v < pick)) pick = v;
    }
    best = pick;
    candidate = pick;
  }
  return best;
}

std::vector<int> cuthill_mckee_permutation(const mesh::TriMesh& mesh,
                                           bool reverse) {
  const mesh::Topology topo(mesh);
  const int n = mesh.num_nodes();
  std::vector<std::vector<int>> adj(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) adj[static_cast<size_t>(i)] = topo.neighbors(i);

  std::vector<int> order;  // order[new] = old
  order.reserve(static_cast<size_t>(n));
  std::vector<char> visited(static_cast<size_t>(n), 0);

  auto degree = [&](int i) {
    return static_cast<int>(adj[static_cast<size_t>(i)].size());
  };

  for (int seed = 0; seed < n; ++seed) {
    if (visited[static_cast<size_t>(seed)]) continue;
    const int start =
        adj[static_cast<size_t>(seed)].empty()
            ? seed
            : pseudo_peripheral_node(adj, seed);

    std::deque<int> queue{start};
    visited[static_cast<size_t>(start)] = 1;
    while (!queue.empty()) {
      const int cur = queue.front();
      queue.pop_front();
      order.push_back(cur);
      std::vector<int> nbrs;
      for (int nb : adj[static_cast<size_t>(cur)]) {
        if (!visited[static_cast<size_t>(nb)]) nbrs.push_back(nb);
      }
      std::sort(nbrs.begin(), nbrs.end(), [&](int a, int b) {
        const int da = degree(a);
        const int db = degree(b);
        return da != db ? da < db : a < b;
      });
      for (int nb : nbrs) {
        visited[static_cast<size_t>(nb)] = 1;
        queue.push_back(nb);
      }
    }
  }
  FEIO_ASSERT(static_cast<int>(order.size()) == n);

  if (reverse) std::reverse(order.begin(), order.end());

  std::vector<int> perm(static_cast<size_t>(n));  // perm[old] = new
  for (int nu = 0; nu < n; ++nu) {
    perm[static_cast<size_t>(order[static_cast<size_t>(nu)])] = nu;
  }
  return perm;
}

RenumberReport renumber(mesh::TriMesh& mesh, NumberingScheme scheme) {
  RenumberReport report;
  report.bandwidth_before = mesh::bandwidth(mesh);
  report.profile_before = mesh::profile(mesh);
  report.bandwidth_after = report.bandwidth_before;
  report.profile_after = report.profile_before;
  if (mesh.num_nodes() == 0) return report;

  struct Candidate {
    NumberingScheme scheme;
    std::vector<int> perm;
    int bandwidth = 0;
    long profile = 0;
  };
  std::vector<Candidate> candidates;
  auto add_candidate = [&](NumberingScheme s, std::vector<int> perm) {
    Candidate c;
    c.scheme = s;
    c.perm = std::move(perm);
    mesh::TriMesh trial = mesh;
    trial.renumber_nodes(c.perm);
    c.bandwidth = mesh::bandwidth(trial);
    c.profile = mesh::profile(trial);
    candidates.push_back(std::move(c));
  };

  if (scheme == NumberingScheme::kCuthillMcKee ||
      scheme == NumberingScheme::kBest) {
    add_candidate(NumberingScheme::kCuthillMcKee,
                  cuthill_mckee_permutation(mesh, /*reverse=*/false));
  }
  if (scheme == NumberingScheme::kReverseCuthillMcKee ||
      scheme == NumberingScheme::kBest) {
    add_candidate(NumberingScheme::kReverseCuthillMcKee,
                  cuthill_mckee_permutation(mesh, /*reverse=*/true));
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
