#include "fem/contact.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace feio::fem {
namespace {

constexpr int kMaxIterations = 30;
constexpr double kTolerance = 1e-9;

}  // namespace

ContactResult solve_with_contact(const StaticProblem& problem,
                                 const std::vector<ContactSupport>& supports) {
  FEIO_REQUIRE(!supports.empty(), "no contact supports given");
  for (const ContactSupport& s : supports) {
    FEIO_ASSERT(s.node >= 0 && s.node < problem.mesh().num_nodes());
  }

  // The unconstrained system is iteration-invariant: assemble once.
  SkylineMatrix k0(problem.dof_skyline_lows());
  std::vector<double> f0;
  problem.assemble_unconstrained(k0, f0);

  ContactResult result;
  result.active.assign(supports.size(), true);  // engage everything first
  result.reaction.assign(supports.size(), 0.0);

  for (int iter = 0; iter < kMaxIterations; ++iter) {
    ++result.iterations;
    FEIO_TRACE_SPAN(span, "fem.contact.iteration");
    span.arg("iteration", iter + 1);
    FEIO_METRIC_ADD("fem.contact.iterations", 1);

    // Constrained copy for this active set.
    SkylineMatrix k = k0;
    std::vector<double> rhs = f0;
    for (const Constraint& c : problem.constraints()) {
      if (c.fix_x) k.apply_dirichlet(2 * c.node, c.value_x, rhs);
      if (c.fix_y) k.apply_dirichlet(2 * c.node + 1, c.value_y, rhs);
    }
    for (size_t s = 0; s < supports.size(); ++s) {
      if (result.active[s]) {
        k.apply_dirichlet(2 * supports[s].node + 1, -supports[s].gap, rhs);
      }
    }
    k.factorize();
    k.solve(rhs);  // rhs now holds u

    // Reactions of the full system: R = K0 u - f0.
    std::vector<double> ku;
    k0.multiply(rhs, ku);

    // Scale for the release/engage tolerances.
    double reaction_scale = 0.0;
    for (size_t s = 0; s < supports.size(); ++s) {
      const auto dof = static_cast<size_t>(2 * supports[s].node + 1);
      if (result.active[s]) {
        reaction_scale = std::max(reaction_scale,
                                  std::abs(ku[dof] - f0[dof]));
      }
    }
    const double r_tol = kTolerance * std::max(reaction_scale, 1e-30);

    bool changed = false;
    for (size_t s = 0; s < supports.size(); ++s) {
      const auto dof = static_cast<size_t>(2 * supports[s].node + 1);
      if (result.active[s]) {
        const double reaction = ku[dof] - f0[dof];
        result.reaction[s] = reaction;
        if (reaction < -r_tol) {  // support pulling: physically impossible
          result.active[s] = false;
          result.reaction[s] = 0.0;
          changed = true;
        }
      } else {
        result.reaction[s] = 0.0;
        const double penetration = -(rhs[dof] + supports[s].gap);
        if (penetration > kTolerance *
                              std::max(std::abs(supports[s].gap), 1e-12)) {
          result.active[s] = true;
          changed = true;
        }
      }
    }

    if (!changed) {
      result.solution.displacement.resize(
          static_cast<size_t>(problem.mesh().num_nodes()));
      for (int n = 0; n < problem.mesh().num_nodes(); ++n) {
        result.solution.displacement[static_cast<size_t>(n)] = {
            rhs[static_cast<size_t>(2 * n)],
            rhs[static_cast<size_t>(2 * n + 1)]};
      }
      result.converged = true;
      return result;
    }
  }
  fail("contact iteration did not converge within " +
       std::to_string(kMaxIterations) + " iterations");
}

}  // namespace feio::fem
