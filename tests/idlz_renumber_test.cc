#include <algorithm>
#include <numeric>
#include <random>

#include <gtest/gtest.h>

#include "idlz/idlz.h"
#include "idlz/renumber.h"
#include "mesh/bandwidth.h"
#include "mesh/validate.h"
#include "scenarios/scenarios.h"

namespace feio::idlz {
namespace {

mesh::TriMesh grid_mesh(int nx, int ny) {
  mesh::TriMesh m;
  for (int j = 0; j <= ny; ++j) {
    for (int i = 0; i <= nx; ++i) {
      m.add_node({static_cast<double>(i), static_cast<double>(j)});
    }
  }
  auto id = [nx](int i, int j) { return j * (nx + 1) + i; };
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      m.add_element(id(i, j), id(i + 1, j), id(i + 1, j + 1));
      m.add_element(id(i, j), id(i + 1, j + 1), id(i, j + 1));
    }
  }
  return m;
}

mesh::TriMesh shuffled(mesh::TriMesh m, unsigned seed) {
  std::vector<int> perm(static_cast<size_t>(m.num_nodes()));
  std::iota(perm.begin(), perm.end(), 0);
  std::mt19937 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  m.renumber_nodes(perm);
  return m;
}

TEST(PermutationTest, IsBijection) {
  const mesh::TriMesh m = shuffled(grid_mesh(6, 4), 1);
  const std::vector<int> perm = cuthill_mckee_permutation(m, false);
  std::vector<char> seen(perm.size(), 0);
  for (int p : perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, static_cast<int>(perm.size()));
    ASSERT_FALSE(seen[static_cast<size_t>(p)]);
    seen[static_cast<size_t>(p)] = 1;
  }
}

TEST(RenumberTest, ReducesShuffledBandwidth) {
  mesh::TriMesh m = shuffled(grid_mesh(8, 4), 7);
  const int before = mesh::bandwidth(m);
  const RenumberReport rep = renumber(m);
  EXPECT_TRUE(rep.applied);
  EXPECT_LT(rep.bandwidth_after, before);
  EXPECT_EQ(rep.bandwidth_after, mesh::bandwidth(m));
  // A narrow strip graph should come close to its natural bandwidth.
  EXPECT_LE(rep.bandwidth_after, 8);
  EXPECT_TRUE(mesh::validate(m).ok());
}

TEST(RenumberTest, KeepsOptimalNumbering) {
  // A 1 x n strip numbered along its length is already near-optimal.
  mesh::TriMesh m = grid_mesh(1, 10);
  const int before = mesh::bandwidth(m);
  const RenumberReport rep = renumber(m);
  EXPECT_LE(rep.bandwidth_after, before);
  EXPECT_EQ(rep.bandwidth_before, before);
}

TEST(RenumberTest, GeometryUnchanged) {
  mesh::TriMesh m = shuffled(grid_mesh(5, 5), 3);
  double area_before = 0.0;
  m.orient_ccw();
  for (int e = 0; e < m.num_elements(); ++e) area_before += m.signed_area(e);
  renumber(m);
  double area_after = 0.0;
  for (int e = 0; e < m.num_elements(); ++e) {
    area_after += std::abs(m.signed_area(e));
  }
  EXPECT_NEAR(area_before, area_after, 1e-9);
}

TEST(RenumberTest, PermutationFieldMatchesApplication) {
  mesh::TriMesh m = shuffled(grid_mesh(6, 3), 11);
  mesh::TriMesh copy = m;
  const RenumberReport rep = renumber(m);
  ASSERT_TRUE(rep.applied);
  copy.renumber_nodes(rep.permutation);
  for (int n = 0; n < m.num_nodes(); ++n) {
    EXPECT_EQ(m.pos(n), copy.pos(n));
  }
}

TEST(RenumberTest, SchemesSelectable) {
  mesh::TriMesh m1 = shuffled(grid_mesh(7, 3), 5);
  mesh::TriMesh m2 = m1;
  const RenumberReport cm = renumber(m1, NumberingScheme::kCuthillMcKee);
  const RenumberReport rcm =
      renumber(m2, NumberingScheme::kReverseCuthillMcKee);
  EXPECT_EQ(cm.bandwidth_after, rcm.bandwidth_after);  // reversal preserves bw
  // RCM profile is never worse than CM's (George's theorem).
  EXPECT_LE(rcm.profile_after, cm.profile_after);
}

TEST(RenumberTest, DisconnectedComponentsHandled) {
  mesh::TriMesh m = grid_mesh(3, 3);
  const int base = m.num_nodes();
  // Second component far away.
  for (int i = 0; i < 3; ++i) m.add_node({100.0 + i, 100.0});
  m.add_element(base, base + 1, base + 2);
  mesh::TriMesh sh = shuffled(m, 2);
  EXPECT_NO_THROW(renumber(sh));
}

TEST(PseudoPeripheralTest, PicksStripEnd) {
  // In a path graph the pseudo-peripheral node is an end.
  std::vector<std::vector<int>> adj{{1}, {0, 2}, {1, 3}, {2, 4}, {3}};
  const int p = pseudo_peripheral_node(adj, 2);
  EXPECT_TRUE(p == 0 || p == 4);
}

TEST(PseudoPeripheralTest, IsolatedNode) {
  std::vector<std::vector<int>> adj{{}};
  EXPECT_EQ(pseudo_peripheral_node(adj, 0), 0);
}

TEST(PseudoPeripheralTest, PrefersLowDegreeNodeOfDeepestLevel) {
  // Regression for the pre-George–Liu bug: the old search returned the raw
  // BFS frontier node (adjacency discovery order), which here is node 4 —
  // a degree-2 interior corner. The deepest level from seed 0 is {4, 5};
  // the minimum-degree member is the true periphery, node 5 (degree 1).
  const std::vector<std::vector<int>> adj{
      {1}, {0, 2, 3}, {1, 3, 4}, {1, 2, 4, 5}, {2, 3}, {3}};
  EXPECT_EQ(pseudo_peripheral_node(adj, 0), 5);
}

// Every node appears exactly once in a permutation (new_index =
// perm[old_index]); returns a diagnostic on failure.
::testing::AssertionResult is_bijection(const std::vector<int>& perm) {
  std::vector<char> seen(perm.size(), 0);
  for (int p : perm) {
    if (p < 0 || p >= static_cast<int>(perm.size())) {
      return ::testing::AssertionFailure() << "index " << p << " out of range";
    }
    if (seen[static_cast<size_t>(p)]) {
      return ::testing::AssertionFailure() << "index " << p << " duplicated";
    }
    seen[static_cast<size_t>(p)] = 1;
  }
  return ::testing::AssertionSuccess();
}

// Two grids plus a lone triangle, all shuffled together: the CM walk must
// restart per component and still touch every node exactly once.
mesh::TriMesh three_components(unsigned seed) {
  mesh::TriMesh m = grid_mesh(5, 3);
  const int b1 = m.num_nodes();
  for (int j = 0; j <= 2; ++j) {
    for (int i = 0; i <= 3; ++i) {
      m.add_node({50.0 + i, 50.0 + j});
    }
  }
  auto id = [b1](int i, int j) { return b1 + j * 4 + i; };
  for (int j = 0; j < 2; ++j) {
    for (int i = 0; i < 3; ++i) {
      m.add_element(id(i, j), id(i + 1, j), id(i + 1, j + 1));
      m.add_element(id(i, j), id(i + 1, j + 1), id(i, j + 1));
    }
  }
  const int b2 = m.num_nodes();
  m.add_node({100.0, 0.0});
  m.add_node({101.0, 0.0});
  m.add_node({100.0, 1.0});
  m.add_element(b2, b2 + 1, b2 + 2);
  return shuffled(std::move(m), seed);
}

TEST(PermutationTest, DisconnectedMeshesStayBijective) {
  // Property test: across seeds and both CM directions, a multi-component
  // mesh always yields a full permutation — no node dropped or duplicated
  // at component boundaries.
  for (unsigned seed : {1u, 7u, 23u, 40u, 91u}) {
    const mesh::TriMesh m = three_components(seed);
    for (bool reverse : {false, true}) {
      const std::vector<int> perm = cuthill_mckee_permutation(m, reverse);
      ASSERT_EQ(perm.size(), static_cast<size_t>(m.num_nodes()));
      EXPECT_TRUE(is_bijection(perm))
          << "seed=" << seed << " reverse=" << reverse;
    }
  }
}

TEST(RenumberTest, DisconnectedRenumberIsValidAndNeverWorse) {
  for (unsigned seed : {3u, 17u}) {
    mesh::TriMesh m = three_components(seed);
    const int before = mesh::bandwidth(m);
    const RenumberReport rep = renumber(m);
    EXPECT_LE(rep.bandwidth_after, before) << "seed=" << seed;
    EXPECT_TRUE(mesh::validate(m).ok()) << "seed=" << seed;
    if (rep.applied) {
      EXPECT_TRUE(is_bijection(rep.permutation)) << "seed=" << seed;
    }
  }
}

TEST(RenumberTest, OrderingOverrideThroughRunOptions) {
  // The RunOptions ordering override beats the deck: kNone forces the pass
  // off even when the deck asked for it, and kRcm forces RCM on a deck that
  // had renumbering disabled.
  IdlzCase c = scenarios::fig09_dsrv_hatch();
  c.options.renumber_nodes = true;

  RunOptions off;
  off.ordering = OrderingChoice::kNone;
  EXPECT_FALSE(run(c, off).renumbering.applied);

  c.options.renumber_nodes = false;
  RunOptions rcm;
  rcm.ordering = OrderingChoice::kRcm;
  const IdlzResult r1 = run(c, rcm);
  if (r1.renumbering.applied) {
    EXPECT_EQ(r1.renumbering.used, NumberingScheme::kReverseCuthillMcKee);
  }
  // Whether RCM improved the deck or not, the pass never makes the
  // numbering worse than generation order.
  EXPECT_LE(r1.renumbering.bandwidth_after, r1.renumbering.bandwidth_before);
}

TEST(RenumberTest, PipelineNonumbEquivalent) {
  // NONUMB=0 keeps the assembly numbering; NONUMB=1 never does worse.
  IdlzCase c = scenarios::fig09_dsrv_hatch();
  c.options.renumber_nodes = false;
  const IdlzResult plain = run(c);
  c.options.renumber_nodes = true;
  const IdlzResult renum = run(c);
  EXPECT_LE(renum.renumbering.bandwidth_after,
            plain.renumbering.bandwidth_after);
  EXPECT_EQ(plain.mesh.num_nodes(), renum.mesh.num_nodes());
  EXPECT_EQ(plain.mesh.num_elements(), renum.mesh.num_elements());
}

// The renumbering claim across the gallery: NONUMB=1 never increases the
// bandwidth, and the permutation keeps the mesh valid.
class RenumberSweep : public ::testing::TestWithParam<int> {};

TEST_P(RenumberSweep, NeverWorse) {
  const auto cases = scenarios::all_idealizations();
  auto c = cases[static_cast<size_t>(GetParam())].c;
  c.options.renumber_nodes = true;
  const IdlzResult r = run(c);
  EXPECT_LE(r.renumbering.bandwidth_after, r.renumbering.bandwidth_before);
  EXPECT_TRUE(mesh::validate(r.mesh).ok());
}

INSTANTIATE_TEST_SUITE_P(AllFigures, RenumberSweep, ::testing::Range(0, 22));

}  // namespace
}  // namespace feio::idlz
