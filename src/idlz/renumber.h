// Bandwidth-minimizing node renumbering (the paper's optional NONUMB=1 pass,
// "the numbering scheme of Reference 2").
//
// We implement the Cuthill–McKee family — the canonical 1969 bandwidth
// reduction scheme contemporaneous with the paper — plus the reverse
// ordering (RCM), which never increases and usually reduces the profile.
// The starting node is chosen by the George–Liu pseudo-peripheral search.
#pragma once

#include <vector>

#include "mesh/topology.h"
#include "mesh/tri_mesh.h"

namespace feio::idlz {

enum class NumberingScheme {
  kCuthillMcKee,
  kReverseCuthillMcKee,
  // Runs both CM and RCM and keeps whichever gives the smaller bandwidth
  // (ties by profile); this is the library default for NONUMB=1.
  kBest,
};

struct RenumberReport {
  int bandwidth_before = 0;
  int bandwidth_after = 0;
  long profile_before = 0;
  long profile_after = 0;
  NumberingScheme used = NumberingScheme::kCuthillMcKee;
  bool applied = false;  // false when the original numbering was kept
  // new_index = permutation[old_index]; empty when not applied. Lets callers
  // remap data keyed by node index (per-subdivision node lists, loads, ...).
  std::vector<int> permutation;
};

// Computes a (R)CM permutation from the node adjacency of `topo`, the
// topology of `mesh`, and applies it to the mesh when it improves the
// bandwidth (profile as tie-break); keeps the original numbering otherwise.
// Disconnected components are ordered one after another. An applied
// permutation leaves `topo` describing the old numbering.
RenumberReport renumber(mesh::TriMesh& mesh, const mesh::Topology& topo,
                        NumberingScheme scheme = NumberingScheme::kBest);

// The raw permutation (new_index = perm[old_index]) of the mesh `topo`
// describes, without applying it.
std::vector<int> cuthill_mckee_permutation(const mesh::Topology& topo,
                                           bool reverse);

// Pseudo-peripheral node of the component containing `seed` (George–Liu
// repeated-BFS heuristic) in the node->node lists `adjacency`. Exposed for
// tests.
int pseudo_peripheral_node(const mesh::Csr& adjacency, int seed);

}  // namespace feio::idlz
