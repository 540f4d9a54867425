// mesh::Topology against the tree-map construction it replaced. The
// reference below is that construction, kept here (and only here) so the
// flat arrays are checked to give the same neighbours, node elements, edge
// elements, boundary and interior edges, boundary loops and boundary kinds,
// in the same order, on meshes of every shape the chain meets.
#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "idlz/idlz.h"
#include "mesh/topology.h"
#include "mesh/tri_mesh.h"
#include "scenarios/scenarios.h"

namespace feio::mesh {

void PrintTo(const Edge& e, std::ostream* os) {
  *os << "(" << e.a << "," << e.b << ")";
}

namespace {

// The std::map construction Topology used before it was flattened.
struct MapTopology {
  std::vector<std::vector<int>> adjacency;
  std::vector<std::vector<int>> node_elements;
  std::map<Edge, std::vector<int>> edge_map;
  std::vector<Edge> boundary_edges;
  std::vector<Edge> interior_edges;

  explicit MapTopology(const TriMesh& mesh) {
    const auto n = static_cast<size_t>(mesh.num_nodes());
    adjacency.resize(n);
    node_elements.resize(n);
    for (int e = 0; e < mesh.num_elements(); ++e) {
      const Element& el = mesh.element(e);
      for (int k = 0; k < 3; ++k) {
        const int a = el.n[static_cast<size_t>(k)];
        const int b = el.n[static_cast<size_t>((k + 1) % 3)];
        edge_map[Edge(a, b)].push_back(e);
        node_elements[static_cast<size_t>(a)].push_back(e);
      }
    }
    for (auto& elems : node_elements) {
      std::sort(elems.begin(), elems.end());
      elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
    }
    for (const auto& [edge, elems] : edge_map) {
      adjacency[static_cast<size_t>(edge.a)].push_back(edge.b);
      adjacency[static_cast<size_t>(edge.b)].push_back(edge.a);
      if (elems.size() == 1) {
        boundary_edges.push_back(edge);
      } else if (elems.size() == 2) {
        interior_edges.push_back(edge);
      }
    }
    for (auto& nbrs : adjacency) std::sort(nbrs.begin(), nbrs.end());
  }

  std::vector<std::vector<int>> boundary_loops() const {
    std::map<int, std::vector<int>> bnbrs;
    for (const Edge& e : boundary_edges) {
      bnbrs[e.a].push_back(e.b);
      bnbrs[e.b].push_back(e.a);
    }
    std::set<Edge> unused(boundary_edges.begin(), boundary_edges.end());
    std::vector<std::vector<int>> loops;
    while (!unused.empty()) {
      const Edge start = *unused.begin();
      unused.erase(unused.begin());
      std::vector<int> loop{start.a, start.b};
      int prev = start.a;
      int cur = start.b;
      while (true) {
        int next = -1;
        for (int cand : bnbrs[cur]) {
          if (cand == prev) continue;
          if (unused.count(Edge(cur, cand))) {
            next = cand;
            break;
          }
        }
        if (next < 0) break;
        unused.erase(Edge(cur, next));
        if (next == loop.front()) break;
        loop.push_back(next);
        prev = cur;
        cur = next;
      }
      loops.push_back(std::move(loop));
    }
    return loops;
  }
};

// The edge-count-map boundary classification TriMesh used before.
std::vector<BoundaryKind> map_boundary_kinds(const TriMesh& mesh) {
  std::map<std::pair<int, int>, int> edge_count;
  std::vector<int> elems_per_node(static_cast<size_t>(mesh.num_nodes()), 0);
  for (const Element& el : mesh.elements()) {
    for (int k = 0; k < 3; ++k) {
      int a = el.n[static_cast<size_t>(k)];
      int b = el.n[static_cast<size_t>((k + 1) % 3)];
      ++elems_per_node[static_cast<size_t>(a)];
      if (a > b) std::swap(a, b);
      ++edge_count[{a, b}];
    }
  }
  std::vector<bool> on_boundary(static_cast<size_t>(mesh.num_nodes()), false);
  for (const auto& [edge, count] : edge_count) {
    if (count == 1) {
      on_boundary[static_cast<size_t>(edge.first)] = true;
      on_boundary[static_cast<size_t>(edge.second)] = true;
    }
  }
  std::vector<BoundaryKind> kinds;
  for (int i = 0; i < mesh.num_nodes(); ++i) {
    if (!on_boundary[static_cast<size_t>(i)]) {
      kinds.push_back(BoundaryKind::kInterior);
    } else if (elems_per_node[static_cast<size_t>(i)] == 1) {
      kinds.push_back(BoundaryKind::kBoundarySingle);
    } else {
      kinds.push_back(BoundaryKind::kBoundaryShared);
    }
  }
  return kinds;
}

template <class T>
std::vector<T> vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

void expect_same(const TriMesh& mesh, const std::string& what) {
  SCOPED_TRACE(what);
  const Topology flat(mesh);
  const MapTopology ref(mesh);

  ASSERT_EQ(flat.num_nodes(), mesh.num_nodes());
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    EXPECT_EQ(vec(flat.neighbors(n)), ref.adjacency[static_cast<size_t>(n)])
        << "neighbours of node " << n;
    EXPECT_EQ(vec(flat.elements_of(n)),
              ref.node_elements[static_cast<size_t>(n)])
        << "elements of node " << n;
  }

  ASSERT_EQ(static_cast<size_t>(flat.num_edges()), ref.edge_map.size());
  int id = 0;
  for (const auto& [edge, elems] : ref.edge_map) {
    EXPECT_EQ(flat.edges()[static_cast<size_t>(id)], edge) << "edge " << id;
    EXPECT_EQ(vec(flat.edge_elements(id)), elems) << "edge " << id;
    EXPECT_EQ(vec(flat.edge_elements(edge)), elems) << "edge " << id;
    EXPECT_EQ(flat.find_edge(edge), id);
    ++id;
  }
  EXPECT_EQ(flat.find_edge(Edge(mesh.num_nodes(), mesh.num_nodes() + 1)), -1);

  for (int e = 0; e < mesh.num_elements(); ++e) {
    const auto& n = mesh.element(e).n;
    for (size_t k = 0; k < 3; ++k) {
      const int edge_id = flat.element_edges(e)[k];
      EXPECT_EQ(flat.edges()[static_cast<size_t>(edge_id)],
                Edge(n[k], n[(k + 1) % 3]))
          << "element " << e << " edge " << k;
    }
  }

  EXPECT_EQ(vec(flat.boundary_edges()), ref.boundary_edges);
  EXPECT_EQ(flat.interior_edges(), ref.interior_edges);
  EXPECT_EQ(flat.boundary_loops(), ref.boundary_loops());

  const std::vector<BoundaryKind> kinds = map_boundary_kinds(mesh);
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    EXPECT_EQ(flat.boundary_kind(n), kinds[static_cast<size_t>(n)])
        << "kind of node " << n;
  }
}

// An nx x ny grid of split squares whose node numbers, element order and
// element corner order are all shuffled by `seed`.
TriMesh shuffled_grid(int nx, int ny, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<int> perm(static_cast<size_t>((nx + 1) * (ny + 1)));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  TriMesh m;
  for (size_t i = 0; i < perm.size(); ++i) m.add_node({0.0, 0.0});
  for (int j = 0; j <= ny; ++j) {
    for (int i = 0; i <= nx; ++i) {
      m.set_pos(perm[static_cast<size_t>(j * (nx + 1) + i)],
                {static_cast<double>(i), static_cast<double>(j)});
    }
  }
  auto id = [&](int i, int j) {
    return perm[static_cast<size_t>(j * (nx + 1) + i)];
  };
  std::vector<std::array<int, 3>> tris;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      tris.push_back({id(i, j), id(i + 1, j), id(i + 1, j + 1)});
      tris.push_back({id(i, j), id(i + 1, j + 1), id(i, j + 1)});
    }
  }
  std::shuffle(tris.begin(), tris.end(), rng);
  for (std::array<int, 3>& t : tris) {
    std::rotate(t.begin(), t.begin() + rng() % 3, t.end());
    m.add_element(t[0], t[1], t[2]);
  }
  return m;
}

TEST(TopologyReferenceTest, ShuffledGrids) {
  for (unsigned seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    expect_same(shuffled_grid(1 + static_cast<int>(seed), 7, seed),
                "grid seed " + std::to_string(seed));
  }
  expect_same(shuffled_grid(40, 30, 99), "large grid");
}

TEST(TopologyReferenceTest, GalleryMeshes) {
  for (const scenarios::NamedCase& nc : scenarios::all_idealizations()) {
    const idlz::IdlzResult r = idlz::run(nc.c);
    expect_same(r.initial, nc.id + " initial");
    expect_same(r.before_reform, nc.id + " before reform");
    expect_same(r.mesh, nc.id + " final");
  }
}

TEST(TopologyReferenceTest, NonManifoldEdge) {
  // Three triangles on edge (0, 1).
  TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0.5, 1});
  m.add_node({0.5, -1});
  m.add_node({0.5, 2});
  m.add_element(0, 1, 2);
  m.add_element(1, 0, 3);
  m.add_element(0, 1, 4);
  expect_same(m, "non-manifold");
  EXPECT_EQ(Topology(m).edge_elements(Edge(0, 1)).size(), 3u);
}

TEST(TopologyReferenceTest, DisconnectedMesh) {
  TriMesh m = shuffled_grid(3, 2, 11);
  const int base = m.num_nodes();
  m.add_node({10, 10});
  m.add_node({11, 10});
  m.add_node({10, 11});
  m.add_node({11, 11});
  m.add_element(base + 3, base, base + 1);
  m.add_element(base + 2, base, base + 3);
  expect_same(m, "disconnected");
  EXPECT_EQ(Topology(m).boundary_loops().size(), 2u);
}

TEST(TopologyReferenceTest, IsolatedNode) {
  TriMesh m;
  m.add_node({0, 0});
  m.add_node({5, 5});  // belongs to no element
  m.add_node({1, 0});
  m.add_node({1, 1});
  m.add_node({0, 1});
  m.add_element(0, 2, 3);
  m.add_element(0, 3, 4);
  expect_same(m, "isolated node");
  const Topology t(m);
  EXPECT_TRUE(t.neighbors(1).empty());
  EXPECT_TRUE(t.elements_of(1).empty());
  EXPECT_EQ(t.boundary_kind(1), BoundaryKind::kInterior);
}

TEST(TopologyReferenceTest, EmptyMesh) {
  expect_same(TriMesh(), "empty");
  TriMesh nodes_only;
  nodes_only.add_node({0, 0});
  nodes_only.add_node({1, 0});
  expect_same(nodes_only, "nodes only");
}

}  // namespace
}  // namespace feio::mesh
