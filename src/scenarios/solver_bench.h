// The `bench_solver` harness: an ordering sweep of the FEM hot path. For
// every bench mesh (IDLZ strips plus a plate-with-holes geometry whose webs
// blow the band up while keeping the envelope thin) and every node ordering
// (none = generation order, RCM), the harness times element assembly and
// blocked envelope factorize+solve, and records the band and envelope byte
// counts and the LDL^T work. This closes the paper's bandwidth claim (C6):
// the renumbering pass shrinks the envelope the solver pays for.
//
// Each cell has one timed arm, the min over its reps; the timed region
// holds only the work itself. Outside it, every timed rep's result is
// byte-compared with an untimed warm-up run's (`identical`). A cell whose
// factor would exceed the harness byte or flop caps is reported with
// `skipped` = true rather than silently dropped. The JSON rendering is a
// feio.report/1 envelope of kind "bench" whose payload is schema-stable
// ("feio.bench.solver/4", see docs/BENCHMARKS.md): fields may be added,
// never renamed or removed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace feio::scenarios {

struct SolverBenchCase {
  std::string name;      // e.g. "factor_solve/plate_holes96/rcm"
  std::string stage;     // "assemble" | "factor_solve"
  std::string mesh;      // bench mesh tag
  std::string ordering;  // "none" | "rcm"
  int n = 0;               // equations (dofs)
  int half_bandwidth = 0;  // dof half-bandwidth under this ordering
  int node_bw = 0;         // nodal bandwidth under this ordering
  std::int64_t band_bytes = 0;     // band of the half-bandwidth: n*(hbw+1)*8
  std::int64_t skyline_bytes = 0;  // the factor's envelope bytes
  // Exact LDL^T work model: the sum of squared dof column heights, which
  // the flop caps compare against. Structure-only, so it is deterministic.
  std::int64_t work = 0;
  double ms = 0.0;         // min wall time over the timed reps
  bool identical = false;  // every timed rep byte-identical to the warm-up
  // True when the cell was not run because its factor exceeds the harness
  // byte or flop cap; timings are 0 and `identical` is vacuously true.
  bool skipped = false;
};

struct SolverBenchReport {
  int hardware_threads = 1;
  int repetitions = 1;
  bool quick = false;
  std::vector<SolverBenchCase> cases;
  // Metrics body from one metered solve outside the timed loops
  // (fem.factorize.panels, fem.static_solves, ...); empty => {}.
  std::string metrics_json;

  bool all_identical() const;
  // feio.report/1 envelope, kind "bench", payload "feio.bench.solver/4".
  std::string render_json() const;
  std::string render_table() const;
};

// Runs the harness on the calling thread. quick restricts the sweep to two
// small meshes for the CI smoke job (the full sweep reaches ~10^6 dofs on
// the big plate-with-holes mesh).
SolverBenchReport run_solver_bench(bool quick);

}  // namespace feio::scenarios
