#include "mesh/bandwidth.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <vector>

namespace feio::mesh {
namespace {

// The measures below with node n read as index(n): the identity, or a
// permutation being scored.
template <class Index>
int bandwidth_of(const TriMesh& mesh, Index index) {
  int bw = 0;
  for (const Element& el : mesh.elements()) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        bw = std::max(bw, std::abs(index(el.n[static_cast<size_t>(i)]) -
                                   index(el.n[static_cast<size_t>(j)])));
      }
    }
  }
  return bw;
}

template <class Index>
std::vector<int> lowest_neighbors_of(const TriMesh& mesh, Index index) {
  std::vector<int> lowest(static_cast<size_t>(mesh.num_nodes()));
  std::iota(lowest.begin(), lowest.end(), 0);
  for (const Element& el : mesh.elements()) {
    const int lo = std::min({index(el.n[0]), index(el.n[1]), index(el.n[2])});
    for (int n : el.n) {
      int& low = lowest[static_cast<size_t>(index(n))];
      low = std::min(low, lo);
    }
  }
  return lowest;
}

template <class Index>
long profile_of(const TriMesh& mesh, Index index) {
  const std::vector<int> lowest = lowest_neighbors_of(mesh, index);
  long p = 0;
  for (int i = 0; i < mesh.num_nodes(); ++i) {
    // Column height including the diagonal: a row coupled only to itself
    // still stores one entry.
    p += i - lowest[static_cast<size_t>(i)] + 1;
  }
  return p;
}

constexpr auto identity = [](int n) { return n; };

}  // namespace

int bandwidth(const TriMesh& mesh) { return bandwidth_of(mesh, identity); }

std::vector<int> lowest_neighbors(const TriMesh& mesh) {
  return lowest_neighbors_of(mesh, identity);
}

long profile(const TriMesh& mesh) { return profile_of(mesh, identity); }

int bandwidth(const TriMesh& mesh, std::span<const int> perm) {
  return bandwidth_of(
      mesh, [perm](int n) { return perm[static_cast<size_t>(n)]; });
}

long profile(const TriMesh& mesh, std::span<const int> perm) {
  return profile_of(mesh,
                    [perm](int n) { return perm[static_cast<size_t>(n)]; });
}

}  // namespace feio::mesh
