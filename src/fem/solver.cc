#include "fem/solver.h"

#include <memory>
#include <utility>

#include "fem/factor_cache.h"
#include "fem/skyline.h"
#include "mesh/bandwidth.h"
#include "util/cancel.h"
#include "util/guard.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace feio::fem {
namespace {

StaticSolution unpack(const StaticProblem& problem,
                      const std::vector<double>& rhs) {
  StaticSolution sol;
  sol.displacement.resize(static_cast<size_t>(problem.mesh().num_nodes()));
  for (int n = 0; n < problem.mesh().num_nodes(); ++n) {
    sol.displacement[static_cast<size_t>(n)] = {
        rhs[static_cast<size_t>(2 * n)], rhs[static_cast<size_t>(2 * n + 1)]};
  }
  return sol;
}

}  // namespace

StoragePrediction predict_storage(const StaticProblem& problem) {
  const mesh::TriMesh& m = problem.mesh();
  StoragePrediction pred;
  pred.band_bytes = util::checked_factor_bytes(problem.num_dofs(),
                                               problem.dof_half_bandwidth());
  // mesh::profile is the node-level column-height sum (diagonal included).
  // Each node row of height h expands to two dof rows: row 2n couples down
  // to dof 2*low(n) (height 2h-1) and row 2n+1 one further (height 2h), so
  // the dof entry count is sum(4h - 1) = 4*P - num_nodes.
  const std::int64_t node_profile = mesh::profile(m);
  const std::int64_t entries = 4 * node_profile - m.num_nodes();
  pred.skyline_bytes = util::checked_skyline_bytes(entries);
  return pred;
}

StaticSolution solve(const StaticProblem& problem, const RunOptions& opts) {
  util::ScopedTracerInstall tracer(opts.tracer);
  util::ScopedMetricsInstall metrics(opts.metrics);
  util::ScopedCancel cancel(opts.cancel);
  FactorCache* const cache = opts.factor_cache;
  FactorKey key;
  std::uint64_t loads = 0;
  if (cache != nullptr) {
    key = factor_key(problem);
    loads = loads_key(problem);
    if (const auto entry = cache->get(key, loads)) {
      // Warm path: the operator (mesh + material + constraints + thermal)
      // matches, so only the load vector needs rebuilding.
      // assemble_load_rhs runs the same rhs arithmetic as the cold path,
      // the recorded Dirichlet ops re-apply the identical constraint
      // transformation (their coefficients are load-independent), and the
      // cached factor bytes make the solve deterministic — so the result is
      // bit-identical to a cold solve of this exact load case. No
      // FEIO_FAULT site runs here — an armed fault cannot fire on a hit.
      std::vector<double> rhs;
      problem.assemble_load_rhs(rhs);
      replay_dirichlet_rhs(entry->rhs_ops, rhs);
      entry->matrix.solve(rhs);
      FEIO_METRIC_ADD("fem.static_solves", 1);
      return unpack(problem, rhs);
    }
  }

  // Cold path: assemble, factorize, solve in place. With a cache set, the
  // Dirichlet ops are recorded for later hits.
  SkylineMatrix k(problem.dof_skyline_lows());
  std::vector<double> rhs;
  std::vector<DirichletRhsOp> rhs_ops;
  problem.assemble(k, rhs, cache != nullptr ? &rhs_ops : nullptr);
  k.factorize();
  k.solve(rhs);
  FEIO_METRIC_ADD("fem.static_solves", 1);
  if (cache != nullptr) {
    // Insert only now, with the solve fully succeeded: a deadline, injected
    // fault, or singular pivot above threw past this line, so a failed job
    // never poisons the cache.
    cache->put(key, std::make_shared<const FactorEntry>(
                        FactorEntry{std::move(k), std::move(rhs_ops), loads}));
  }
  return unpack(problem, rhs);
}

}  // namespace feio::fem
