#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "idlz/assembler.h"
#include "idlz/idlz.h"
#include "mesh/topology.h"
#include "mesh/validate.h"
#include "mesh_helpers.h"
#include "scenarios/scenarios.h"
#include "util/error.h"

namespace feio::idlz {
namespace {

Subdivision make(int id, int k1, int l1, int k2, int l2, int ntaprw = 0,
                 int ntapcm = 0) {
  Subdivision s;
  s.id = id;
  s.k1 = k1;
  s.l1 = l1;
  s.k2 = k2;
  s.l2 = l2;
  s.ntaprw = ntaprw;
  s.ntapcm = ntapcm;
  return s;
}

TEST(AssembleTest, SingleRectangleCounts) {
  const Assembly a = assemble({make(1, 1, 1, 4, 3)});
  EXPECT_EQ(a.mesh.num_nodes(), 12);
  EXPECT_EQ(a.mesh.num_elements(), 2 * 3 * 2);  // 3x2 cells, 2 triangles each
  EXPECT_TRUE(mesh_helpers::validate(a.mesh).ok());
}

TEST(AssembleTest, NodesNumberedLeftToRightBottomToTop) {
  const Assembly a = assemble({make(1, 1, 1, 3, 2)});
  // Within the subdivision: (1,1) -> 0, (2,1) -> 1, (3,1) -> 2, (1,2) -> 3...
  EXPECT_EQ(mesh_helpers::node_at(a, GridPoint{1, 1}), 0);
  EXPECT_EQ(mesh_helpers::node_at(a, GridPoint{3, 1}), 2);
  EXPECT_EQ(mesh_helpers::node_at(a, GridPoint{1, 2}), 3);
  EXPECT_EQ(a.grid_of[0], (GridPoint{1, 1}));
}

TEST(AssembleTest, InitialPositionsAreIntegerCoordinates) {
  const Assembly a = assemble({make(1, 2, 3, 4, 5)});
  const int n = mesh_helpers::node_at(a, GridPoint{3, 4});
  EXPECT_EQ(a.mesh.pos(n), (geom::Vec2{3.0, 4.0}));
}

TEST(AssembleTest, AdjacentSubdivisionsShareNodes) {
  // Two rectangles sharing the row l = 3.
  const Assembly a = assemble({make(1, 1, 1, 4, 3), make(2, 1, 3, 4, 5)});
  EXPECT_EQ(a.mesh.num_nodes(), 12 + 12 - 4);
  EXPECT_TRUE(mesh_helpers::validate(a.mesh).ok());
  // The shared grid point resolves to one node id in both subdivisions.
  const int shared = mesh_helpers::node_at(a, GridPoint{2, 3});
  int hits = 0;
  for (int n : a.subdivision_nodes[0]) {
    if (n == shared) ++hits;
  }
  for (int n : a.subdivision_nodes[1]) {
    if (n == shared) ++hits;
  }
  EXPECT_EQ(hits, 2);
}

TEST(AssembleTest, SharedBoundaryIsConforming) {
  const Assembly a = assemble({make(1, 1, 1, 4, 3), make(2, 1, 3, 4, 5)});
  // No non-manifold edges and exactly one boundary loop.
  const mesh::Topology topo(a.mesh);
  EXPECT_EQ(topo.boundary_loops().size(), 1u);
}

TEST(AssembleTest, RowTrapezoidElementCount) {
  // Widths 1,3,5,7,9: strips contribute (w_lo + w_hi - 2) triangles each.
  const Assembly a = assemble({make(1, 1, 1, 9, 5, +1)});
  EXPECT_EQ(a.mesh.num_nodes(), 25);
  EXPECT_EQ(a.mesh.num_elements(), 2 + 6 + 10 + 14);
  EXPECT_TRUE(mesh_helpers::validate(a.mesh).ok());
}

TEST(AssembleTest, ColTrapezoidElementCount) {
  const Assembly a = assemble({make(1, 1, 1, 3, 9, 0, -2)});  // 9,5,1
  EXPECT_EQ(a.mesh.num_nodes(), 15);
  EXPECT_EQ(a.mesh.num_elements(), (9 + 5 - 2) + (5 + 1 - 2));
  EXPECT_TRUE(mesh_helpers::validate(a.mesh).ok());
}

TEST(AssembleTest, AllElementsCcw) {
  const Assembly a = assemble({make(1, 1, 1, 9, 5, +1), make(2, 1, 5, 9, 7)});
  for (int e = 0; e < a.mesh.num_elements(); ++e) {
    EXPECT_GT(a.mesh.signed_area(e), 0.0);
  }
}

TEST(AssembleTest, BoundaryFlagsClassified) {
  const Assembly a = assemble({make(1, 1, 1, 4, 4)});
  const int corner = mesh_helpers::node_at(a, GridPoint{1, 1});
  const int mid = mesh_helpers::node_at(a, GridPoint{2, 2});
  EXPECT_NE(a.mesh.node(corner).boundary, mesh::BoundaryKind::kInterior);
  EXPECT_EQ(a.mesh.node(mid).boundary, mesh::BoundaryKind::kInterior);
}

TEST(AssembleTest, SubdivisionElementOwnership) {
  const Assembly a = assemble({make(1, 1, 1, 4, 3), make(2, 1, 3, 4, 5)});
  EXPECT_EQ(a.subdivision_elements[0].size(), 12u);
  EXPECT_EQ(a.subdivision_elements[1].size(), 12u);
  // Ownership is a partition of all elements.
  std::set<int> all;
  for (const auto& v : a.subdivision_elements) all.insert(v.begin(), v.end());
  EXPECT_EQ(static_cast<int>(all.size()), a.mesh.num_elements());
}

// ---- Table 2 restrictions ------------------------------------------------

TEST(LimitsTest, RejectsTooManySubdivisions) {
  std::vector<Subdivision> subs;
  for (int i = 0; i < 51; ++i) subs.push_back(make(i + 1, 1, 1, 2, 2));
  EXPECT_THROW(assemble(subs), Error);
}

TEST(LimitsTest, RejectsGridOverflow) {
  EXPECT_THROW(assemble({make(1, 1, 1, 41, 5)}), Error);   // K > 40
  EXPECT_THROW(assemble({make(1, 1, 1, 5, 61)}), Error);   // L > 60
  EXPECT_NO_THROW(assemble({make(1, 1, 1, 40, 60)},
                           Limits::unlimited()));  // node count too big for
                                                   // paper limits, fine here
}

TEST(LimitsTest, RejectsTooManyNodes) {
  // 21 x 25 grid = 525 nodes > 500.
  EXPECT_THROW(assemble({make(1, 1, 1, 21, 25)}), Error);
  EXPECT_NO_THROW(assemble({make(1, 1, 1, 21, 25)}, Limits::unlimited()));
}

TEST(LimitsTest, RejectsTooManyElements) {
  // 20 x 22 = 440 nodes (ok) but 2*19*21 = 798 elements; use two stacked
  // blocks to pass 850.
  std::vector<Subdivision> subs{make(1, 1, 1, 16, 16), make(2, 1, 16, 16, 31)};
  // nodes: 256 + 256 - 16 = 496 <= 500; elements: 2*15*15*2 = 900 > 850.
  EXPECT_THROW(assemble(subs), Error);
}

// Table 2's capacity run: two stacked subdivisions idealize right under
// the paper's limits (50 subdivisions, 850 elements, 500 nodes, 40 x 60).
TEST(LimitsTest, Table2CapacityCaseRunsAtPaperLimits) {
  const Limits paper;
  EXPECT_EQ(paper.max_subdivisions, 50);
  EXPECT_EQ(paper.max_elements, 850);
  EXPECT_EQ(paper.max_nodes, 500);
  EXPECT_EQ(paper.max_k, 40);
  EXPECT_EQ(paper.max_l, 60);

  IdlzCase c;
  c.subdivisions = {make(1, 1, 1, 16, 16), make(2, 1, 16, 16, 29)};
  ShapingSpec a;
  a.subdivision_id = 1;
  a.lines = {{1, 1, 16, 1, {0.0, 0.0}, {15.0, 0.0}, 0.0},
             {1, 16, 16, 16, {0.0, 15.0}, {15.0, 15.0}, 0.0}};
  ShapingSpec b;
  b.subdivision_id = 2;
  b.lines = {{1, 29, 16, 29, {0.0, 28.0}, {15.0, 28.0}, 0.0}};
  c.shaping = {a, b};
  const IdlzResult r = run(c);
  EXPECT_EQ(r.mesh.num_nodes(), 464);
  EXPECT_EQ(r.mesh.num_elements(), 840);
}

TEST(LimitsTest, EmptyInputRejected) {
  EXPECT_THROW(assemble({}), Error);
}

TEST(AssembleTest, DuplicateSubdivisionIdThrows) {
  EXPECT_THROW(assemble({make(3, 1, 1, 3, 3), make(3, 1, 3, 3, 5)}), Error);
}

// ---- Strip triangulation ------------------------------------------------

TEST(TriangulateStripTest, EqualChainsAlternate) {
  mesh::TriMesh m;
  for (int i = 0; i < 3; ++i) m.add_node({static_cast<double>(i), 0});
  for (int i = 0; i < 3; ++i) m.add_node({static_cast<double>(i), 1});
  std::vector<int> elems;
  triangulate_strip({0, 1, 2}, {0, 1, 2}, {3, 4, 5}, {0, 1, 2}, m, &elems);
  EXPECT_EQ(m.num_elements(), 4);
  EXPECT_EQ(elems.size(), 4u);
  m.orient_ccw();
  double area = 0.0;
  for (int e = 0; e < m.num_elements(); ++e) area += m.signed_area(e);
  EXPECT_DOUBLE_EQ(area, 2.0);
}

TEST(TriangulateStripTest, FanFromSingleNode) {
  mesh::TriMesh m;
  const int apex = m.add_node({1, 1});
  std::vector<int> bottom;
  for (int i = 0; i < 4; ++i) {
    bottom.push_back(m.add_node({static_cast<double>(i), 0}));
  }
  triangulate_strip(bottom, {0, 1, 2, 3}, {apex}, {1.5}, m, nullptr);
  EXPECT_EQ(m.num_elements(), 3);
  // Every element touches the apex.
  for (int e = 0; e < m.num_elements(); ++e) {
    const auto& n = m.element(e).n;
    EXPECT_TRUE(n[0] == apex || n[1] == apex || n[2] == apex);
  }
}

TEST(TriangulateStripTest, UnequalChainsCoverArea) {
  mesh::TriMesh m;
  std::vector<int> bottom, top;
  std::vector<double> bpos, tpos;
  for (int i = 0; i < 5; ++i) {
    bottom.push_back(m.add_node({static_cast<double>(i), 0}));
    bpos.push_back(i);
  }
  for (int i = 0; i < 9; ++i) {
    top.push_back(m.add_node({i - 2.0, 1}));
    tpos.push_back(i - 2.0);
  }
  triangulate_strip(bottom, bpos, top, tpos, m, nullptr);
  EXPECT_EQ(m.num_elements(), 5 + 9 - 2);
  m.orient_ccw();
  EXPECT_TRUE(mesh_helpers::validate(m).ok());
}

TEST(TriangulateStripTest, AlternatingDiagonalsUnionJack) {
  mesh::TriMesh m;
  for (int i = 0; i < 4; ++i) m.add_node({static_cast<double>(i), 0});
  for (int i = 0; i < 4; ++i) m.add_node({static_cast<double>(i), 1});
  triangulate_strip({0, 1, 2, 3}, {0, 1, 2, 3}, {4, 5, 6, 7}, {0, 1, 2, 3},
                    m, nullptr, DiagonalStyle::kAlternating);
  EXPECT_EQ(m.num_elements(), 6);
  m.orient_ccw();
  EXPECT_TRUE(mesh_helpers::validate(m).ok());
  // Cell 0 has the "/" diagonal 0-5; cell 1 the "\" diagonal 5-2.
  auto has_edge = [&](int a, int b) {
    for (int e = 0; e < m.num_elements(); ++e) {
      const auto& n = m.element(e).n;
      for (int k = 0; k < 3; ++k) {
        const int u = n[static_cast<size_t>(k)];
        const int v = n[static_cast<size_t>((k + 1) % 3)];
        if ((u == a && v == b) || (u == b && v == a)) return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_edge(0, 5));
  EXPECT_TRUE(has_edge(5, 2));
  EXPECT_TRUE(has_edge(2, 7));
}

TEST(AssembleTest, DiagonalStyleProducesSameCounts) {
  const std::vector<Subdivision> subs{make(1, 1, 1, 6, 6)};
  const Assembly uniform = assemble(subs, Limits::paper(),
                                    DiagonalStyle::kUniform);
  const Assembly alternating = assemble(subs, Limits::paper(),
                                        DiagonalStyle::kAlternating);
  EXPECT_EQ(uniform.mesh.num_nodes(), alternating.mesh.num_nodes());
  EXPECT_EQ(uniform.mesh.num_elements(), alternating.mesh.num_elements());
  EXPECT_TRUE(mesh_helpers::validate(alternating.mesh).ok());
  // And the connectivity genuinely differs.
  bool differs = false;
  for (int e = 0; e < uniform.mesh.num_elements(); ++e) {
    if (uniform.mesh.element(e) != alternating.mesh.element(e)) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(TriangulateStripTest, DegeneratePairOfPointsProducesNothing) {
  mesh::TriMesh m;
  const int a = m.add_node({0, 0});
  const int b = m.add_node({0, 1});
  triangulate_strip({a}, {0}, {b}, {0}, m, nullptr);
  EXPECT_EQ(m.num_elements(), 0);
}

// ---- Differential numbering test ---------------------------------------
//
// The numbering assemble() used before it sorted, kept as the reference: a
// std::map from grid point to node id, filled subdivision by subdivision in
// grid_points() order, and triangulation through lookups in that map.

struct MapAssembly {
  std::vector<GridPoint> grid_of;
  mesh::TriMesh mesh;
  std::vector<std::vector<int>> subdivision_nodes;
  std::vector<std::vector<int>> subdivision_elements;
};

MapAssembly map_assembly(const std::vector<Subdivision>& subs,
                         DiagonalStyle diagonals) {
  MapAssembly out;
  std::map<GridPoint, int> node_at;
  for (const Subdivision& sub : subs) {
    std::vector<int>& nodes = out.subdivision_nodes.emplace_back();
    for (const GridPoint& gp : sub.grid_points()) {
      const auto [it, inserted] =
          node_at.try_emplace(gp, static_cast<int>(out.grid_of.size()));
      if (inserted) {
        out.grid_of.push_back(gp);
        out.mesh.add_node(
            {static_cast<double>(gp.k), static_cast<double>(gp.l)});
      }
      nodes.push_back(it->second);
    }
  }
  for (const Subdivision& sub : subs) {
    std::vector<int>& elements = out.subdivision_elements.emplace_back();
    for (int s = 0; s + 1 < sub.strip_count(); ++s) {
      std::array<std::vector<int>, 2> chain;
      std::array<std::vector<double>, 2> chain_pos;
      for (size_t which = 0; which < 2; ++which) {
        const int st = s + static_cast<int>(which);
        for (int j = 0; j < sub.strip_width(st); ++j) {
          const GridPoint gp = sub.strip_node(st, j);
          chain[which].push_back(node_at.at(gp));
          chain_pos[which].push_back(sub.is_col_trapezoid() ? gp.l : gp.k);
        }
      }
      triangulate_strip(chain[0], chain_pos[0], chain[1], chain_pos[1],
                        out.mesh, &elements, diagonals);
    }
  }
  out.mesh.orient_ccw();
  return out;
}

// assemble() against the reference, and its topology against a fresh one.
void expect_numbering_matches_map(const std::vector<Subdivision>& subs,
                                  DiagonalStyle diagonals,
                                  const std::string& what) {
  const Assembly a = assemble(subs, Limits::unlimited(), diagonals);
  const MapAssembly want = map_assembly(subs, diagonals);
  EXPECT_EQ(a.grid_of, want.grid_of) << what;
  EXPECT_EQ(a.subdivision_nodes, want.subdivision_nodes) << what;
  EXPECT_EQ(a.subdivision_elements, want.subdivision_elements) << what;
  EXPECT_EQ(a.mesh.elements(), want.mesh.elements()) << what;
  ASSERT_EQ(a.mesh.num_nodes(), want.mesh.num_nodes()) << what;
  for (int n = 0; n < a.mesh.num_nodes(); ++n) {
    EXPECT_EQ(a.mesh.pos(n), want.mesh.pos(n)) << what << " node " << n;
  }
  mesh_helpers::expect_topology_of(a.topology, a.mesh);
}

TEST(NumberingDifferentialTest, GalleryDecksNumberAsTheMapDid) {
  for (const auto& nc : scenarios::all_idealizations()) {
    expect_numbering_matches_map(nc.c.subdivisions, nc.c.options.diagonals,
                                 nc.id);
  }
}

// SplitMix64, so the decks are the same on every platform.
struct Rng {
  std::uint64_t state;
  int below(int n) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<int>((z ^ (z >> 31)) % static_cast<unsigned>(n));
  }
};

// A block of rectangles sharing their sides, a row trapezoid on its top
// side and a column trapezoid on its right side (either may shrink to a
// point: a triangular subdivision), and one more rectangle or trapezoid
// dropped anywhere over the block, listed in shuffled order.
std::vector<Subdivision> random_deck(Rng& rng) {
  std::vector<Subdivision> deck;
  std::vector<int> ks{1};
  std::vector<int> ls{1};
  for (int c = 1 + rng.below(3); c > 0; --c) {
    ks.push_back(ks.back() + 1 + rng.below(4));
  }
  for (int r = 1 + rng.below(3); r > 0; --r) {
    ls.push_back(ls.back() + 1 + rng.below(4));
  }
  for (size_t r = 0; r + 1 < ls.size(); ++r) {
    for (size_t c = 0; c + 1 < ks.size(); ++c) {
      deck.push_back(make(0, ks[c], ls[r], ks[c + 1], ls[r + 1]));
    }
  }
  const int width = ks.back() - 1;
  const int height = ls.back() - 1;
  if (width >= 2) {  // long bottom row on the block's top side
    const int rows = 1 + rng.below(width / 2);
    deck.push_back(make(0, 1, ls.back(), ks.back(), ls.back() + rows, -1));
  }
  if (height >= 2) {  // long left column on the block's right side
    const int cols = 1 + rng.below(height / 2);
    deck.push_back(make(0, ks.back(), 1, ks.back() + cols, ls.back(), 0, -1));
  }
  const int k1 = 1 + rng.below(width + 1);
  const int l1 = 1 + rng.below(height + 1);
  const int t = rng.below(3) - 1;  // -1, 0 or +1
  const int strips = 1 + rng.below(3);
  const int across = std::max(1, 2 * strips * std::abs(t) + rng.below(3));
  deck.push_back(rng.below(2) == 0
                     ? make(0, k1, l1, k1 + across, l1 + strips, t)
                     : make(0, k1, l1, k1 + strips, l1 + across, 0, t));
  for (size_t i = deck.size(); i > 1; --i) {
    std::swap(deck[i - 1], deck[static_cast<size_t>(
                               rng.below(static_cast<int>(i)))]);
  }
  for (size_t i = 0; i < deck.size(); ++i) {
    deck[i].id = static_cast<int>(i) + 1;
  }
  return deck;
}

TEST(NumberingDifferentialTest, RandomDecksNumberAsTheMapDid) {
  Rng rng{20261020};
  int shared = 0;
  int triangles = 0;
  for (int i = 0; i < 300; ++i) {
    const std::vector<Subdivision> deck = random_deck(rng);
    const DiagonalStyle diagonals = rng.below(2) == 0
                                        ? DiagonalStyle::kUniform
                                        : DiagonalStyle::kAlternating;
    expect_numbering_matches_map(deck, diagonals,
                                 "deck " + std::to_string(i));
    size_t points = 0;
    for (const Subdivision& sub : deck) {
      points += sub.grid_points().size();
      triangles += sub.is_triangle();
    }
    shared += assemble(deck, Limits::unlimited()).mesh.num_nodes() <
              static_cast<int>(points);
  }
  EXPECT_EQ(shared, 300);  // every deck shares grid points
  EXPECT_GT(triangles, 50);
}

}  // namespace
}  // namespace feio::idlz
