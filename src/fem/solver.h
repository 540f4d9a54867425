// Static linear solve: displacements from a StaticProblem.
#pragma once

#include <cstdint>
#include <vector>

#include "fem/assembly.h"
#include "feio/run_options.h"

namespace feio::fem {

struct StaticSolution {
  std::vector<geom::Vec2> displacement;  // one per node

  geom::Vec2 at(int node) const {
    return displacement[static_cast<size_t>(node)];
  }
};

// A size report of the stiffness factor for this problem's dof numbering:
// band_bytes is what a band of the dof half-bandwidth would hold
// (n * (hbw+1) doubles); skyline_bytes is the true envelope the solve
// stores (the dof column-height sum, derived from mesh::profile — see
// predict_storage). The envelope is the only layout, so use_skyline is
// always true; the ratio of the two byte counts is what bandwidth
// renumbering buys.
struct StoragePrediction {
  bool use_skyline = true;
  std::int64_t band_bytes = 0;
  std::int64_t skyline_bytes = 0;
};

// Structure-only (reads the mesh numbering, touches no matrix values).
StoragePrediction predict_storage(const StaticProblem& problem);

// Assembles, applies constraints, factorizes (envelope LDL^T) and solves
// serially under a RunOptions block: the tracer/metrics sinks and the
// cancel token are installed for the duration of the call (spans
// fem.assemble, fem.factorize, fem.solve), and an expired token throws
// util::Cancelled at the next assembly or factorization check. When
// opts.factor_cache is set, the solve consults the factorized-stiffness
// LRU first (fem/factor_cache.h): a hit skips assembly and factorization
// entirely and a successful cold solve populates the cache. Output is
// byte-identical cached or cold. Throws feio::Error on singular systems.
StaticSolution solve(const StaticProblem& problem, const RunOptions& opts);

}  // namespace feio::fem
