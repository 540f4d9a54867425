// Unilateral seat contact — the capability behind the paper's Figure 13
// caption "DSSV BOTTOM HATCH MODIFIED FOR CONTACT. SECOND IDEALIZATION".
//
// A hatch resting on its seat can push on it but not pull: each candidate
// support node carries the complementarity condition
//
//   u_n >= -gap,   R >= 0,   (u_n + gap) * R = 0
//
// with u_n the displacement along the (axis-aligned) support normal and R
// the reaction. solve_with_contact resolves the active set iteratively:
// supports whose reaction goes tensile are released, released nodes that
// penetrate are re-engaged, repeating until the set is stable. For the
// linear substrate each iteration is one envelope solve, so the loop
// terminates quickly in practice (the active set shrinks/grows
// monotonically in typical seat problems).
#pragma once

#include <vector>

#include "fem/assembly.h"
#include "fem/solver.h"

namespace feio::fem {

// A frictionless rigid support under `node`, pushing along +y (the seat
// normal for the axisymmetric hatch cross-sections, where y is the axial
// direction). `gap` is the initial clearance: contact engages once the
// node moves down by `gap`.
struct ContactSupport {
  int node = -1;
  double gap = 0.0;
};

struct ContactOptions {
  int max_iterations = 30;
  // Reactions more negative than -tol * |max reaction| release; nodes
  // penetrating deeper than tol * gap-scale engage.
  double tolerance = 1e-9;
};

struct ContactResult {
  StaticSolution solution;
  // Per candidate (same order as the input): engaged at convergence?
  std::vector<bool> active;
  // Support reaction per candidate (0 for released supports).
  std::vector<double> reaction;
  int iterations = 0;
  bool converged = false;
};

// Solves `problem` with the unilateral supports added. The problem's own
// constraints/loads are untouched; the supports supplement them. Throws
// feio::Error if an iteration's system is singular (the candidate set must
// restrain rigid motion when all supports engage).
ContactResult solve_with_contact(const StaticProblem& problem,
                                 const std::vector<ContactSupport>& supports,
                                 const ContactOptions& options = {});

}  // namespace feio::fem
