#include "mesh/topology.h"

#include <algorithm>
#include <utility>

#include "util/metrics.h"

namespace feio::mesh {
namespace {

// Groups items into compressed rows with one counting and one filling pass:
// `emit_all(emit)` calls emit(row, item) for every item, in the same order
// both times, and items keep that order within their row.
template <class T, class EmitAll>
void group_rows(size_t rows, const EmitAll& emit_all,
                std::vector<int>& offsets, std::vector<T>& items) {
  offsets.assign(rows + 1, 0);
  emit_all(
      [&](int row, const T&) { ++offsets[static_cast<size_t>(row) + 1]; });
  for (size_t i = 1; i <= rows; ++i) offsets[i] += offsets[i - 1];
  items.resize(static_cast<size_t>(offsets.back()));
  std::vector<int> fill(offsets.begin(), offsets.end() - 1);
  emit_all([&](int row, const T& item) {
    items[static_cast<size_t>(fill[static_cast<size_t>(row)]++)] = item;
  });
}

// Whether corner k of `el` is the first corner holding its node (only a
// degenerate element repeats one).
bool first_use(const Element& el, size_t k) {
  const int n = el.n[k];
  return (k < 1 || el.n[0] != n) && (k < 2 || el.n[1] != n);
}

}  // namespace

Topology::Topology(const TriMesh& mesh) {
  FEIO_METRIC_ADD("mesh.topology_builds", 1);
  const auto nn = static_cast<size_t>(mesh.num_nodes());
  const std::vector<Element>& elements = mesh.elements();

  // Bucket every element edge by its lower node. An entry keeps the upper
  // node and the edge's slot 3e + k (edge k of element e), so each bucket
  // fills in ascending slot order.
  struct HalfEdge {
    int upper;
    int slot;
  };
  std::vector<int> bucket;
  std::vector<HalfEdge> half;
  group_rows<HalfEdge>(
      nn,
      [&](auto&& emit) {
        for (size_t el = 0; el < elements.size(); ++el) {
          for (size_t k = 0; k < 3; ++k) {
            const Edge e(elements[el].n[k], elements[el].n[(k + 1) % 3]);
            emit(e.a, HalfEdge{e.b, static_cast<int>(3 * el + k)});
          }
        }
      },
      bucket, half);

  // Order each bucket by upper node. The buckets hold a handful of entries,
  // and insertion sort is stable, so the slots of one edge stay ascending.
  // Count the edges on the way: one per run of equal upper nodes.
  size_t edge_count = 0;
  for (size_t v = 0; v < nn; ++v) {
    const auto first = half.begin() + bucket[v];
    const auto last = half.begin() + bucket[v + 1];
    for (auto it = first; it != last; ++it) {
      const HalfEdge h = *it;
      auto hole = it;
      for (; hole != first && (hole - 1)->upper > h.upper; --hole) {
        *hole = *(hole - 1);
      }
      *hole = h;
    }
    for (auto it = first; it != last; ++it) {
      edge_count += it == first || it->upper != (it - 1)->upper;
    }
  }

  // A run of equal upper nodes in a bucket is one edge, so edge ids follow
  // sorted (lower, upper) order and each edge's elements come out ascending.
  element_edges_.resize(elements.size());
  edges_.reserve(edge_count);
  edge_elements_.offsets.clear();
  edge_elements_.offsets.reserve(edge_count + 1);
  edge_elements_.items.reserve(half.size());
  for (size_t v = 0; v < nn; ++v) {
    for (int i = bucket[v]; i < bucket[v + 1]; ++i) {
      const HalfEdge h = half[static_cast<size_t>(i)];
      if (i == bucket[v] || h.upper != half[static_cast<size_t>(i - 1)].upper) {
        edge_elements_.offsets.push_back(
            static_cast<int>(edge_elements_.items.size()));
        edges_.push_back(Edge(static_cast<int>(v), h.upper));
      }
      edge_elements_.items.push_back(h.slot / 3);
      element_edges_[static_cast<size_t>(h.slot / 3)]
                    [static_cast<size_t>(h.slot % 3)] = num_edges() - 1;
    }
  }
  edge_elements_.offsets.push_back(
      static_cast<int>(edge_elements_.items.size()));

  // Node->node rows, filled in edge order: a node's lower neighbours come
  // from earlier buckets and its upper ones from its own, so every row
  // comes out ascending.
  group_rows<int>(
      nn,
      [&](auto&& emit) {
        for (const Edge& e : edges_) {
          emit(e.a, e.b);
          emit(e.b, e.a);
        }
      },
      neighbors_.offsets, neighbors_.items);

  // Node->element rows, filled in element order, so ascending.
  group_rows<int>(
      nn,
      [&](auto&& emit) {
        for (size_t el = 0; el < elements.size(); ++el) {
          for (size_t k = 0; k < 3; ++k) {
            if (first_use(elements[el], k)) {
              emit(elements[el].n[k], static_cast<int>(el));
            }
          }
        }
      },
      node_elements_.offsets, node_elements_.items);

  // The boundary edges and the nodes' boundary kinds.
  std::vector<char> on_boundary(nn, 0);
  for (int id = 0; id < num_edges(); ++id) {
    if (!is_boundary(id)) continue;
    const Edge e = edges_[static_cast<size_t>(id)];
    boundary_edges_.push_back(e);
    on_boundary[static_cast<size_t>(e.a)] = 1;
    on_boundary[static_cast<size_t>(e.b)] = 1;
  }
  kinds_.resize(nn);
  for (size_t v = 0; v < nn; ++v) {
    if (!on_boundary[v]) {
      kinds_[v] = BoundaryKind::kInterior;
    } else if (elements_of(static_cast<int>(v)).size() == 1) {
      kinds_[v] = BoundaryKind::kBoundarySingle;
    } else {
      kinds_[v] = BoundaryKind::kBoundaryShared;
    }
  }
}

int Topology::find_edge(Edge e) const {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), e);
  if (it == edges_.end() || *it != e) return -1;
  return static_cast<int>(it - edges_.begin());
}

std::span<const int> Topology::edge_elements(Edge e) const {
  const int id = find_edge(e);
  return id < 0 ? std::span<const int>() : edge_elements(id);
}

std::vector<Edge> Topology::interior_edges() const {
  // Edges with more than two elements are non-manifold and in neither list;
  // validation reports them.
  std::vector<Edge> out;
  for (int id = 0; id < num_edges(); ++id) {
    if (edge_elements(id).size() == 2) {
      out.push_back(edges_[static_cast<size_t>(id)]);
    }
  }
  return out;
}

std::vector<std::vector<int>> Topology::boundary_loops() const {
  // Walks boundary edges from the lowest unused one. At each node the next
  // edge is the first unused boundary edge in ascending neighbour order.
  std::vector<char> used(edges_.size(), 0);
  std::vector<std::vector<int>> loops;
  for (int first = 0; first < num_edges(); ++first) {
    if (!is_boundary(first) || used[static_cast<size_t>(first)]) continue;
    used[static_cast<size_t>(first)] = 1;
    const Edge start = edges_[static_cast<size_t>(first)];
    std::vector<int> loop{start.a, start.b};
    int prev = start.a;
    int cur = start.b;
    while (true) {
      int next = -1;
      for (int cand : neighbors(cur)) {
        if (cand == prev) continue;
        const int id = find_edge(Edge(cur, cand));
        if (!is_boundary(id) || used[static_cast<size_t>(id)]) continue;
        used[static_cast<size_t>(id)] = 1;
        next = cand;
        break;
      }
      if (next < 0) break;  // open chain or finished loop
      if (next == loop.front()) break;  // closed; do not repeat the first node
      loop.push_back(next);
      prev = cur;
      cur = next;
    }
    loops.push_back(std::move(loop));
  }
  return loops;
}

}  // namespace feio::mesh
