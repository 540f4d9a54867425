#include "mesh/bandwidth.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <vector>

namespace feio::mesh {

int bandwidth(const TriMesh& mesh) {
  int bw = 0;
  for (const Element& el : mesh.elements()) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        bw = std::max(bw, std::abs(el.n[static_cast<size_t>(i)] -
                                   el.n[static_cast<size_t>(j)]));
      }
    }
  }
  return bw;
}

std::vector<int> lowest_neighbors(const TriMesh& mesh) {
  std::vector<int> lowest(static_cast<size_t>(mesh.num_nodes()));
  std::iota(lowest.begin(), lowest.end(), 0);
  for (const Element& el : mesh.elements()) {
    const int lo = std::min({el.n[0], el.n[1], el.n[2]});
    for (int n : el.n) {
      lowest[static_cast<size_t>(n)] = std::min(lowest[static_cast<size_t>(n)], lo);
    }
  }
  return lowest;
}

long profile(const TriMesh& mesh) {
  const std::vector<int> lowest = lowest_neighbors(mesh);
  long p = 0;
  for (int i = 0; i < mesh.num_nodes(); ++i) {
    // Column height including the diagonal: a row coupled only to itself
    // still stores one entry.
    p += i - lowest[static_cast<size_t>(i)] + 1;
  }
  return p;
}

}  // namespace feio::mesh
