// The ordering x threads sweep of the FEM hot path: element assembly and
// blocked envelope LDL^T factorize+solve under none/RCM node orderings, on
// IDLZ strips and plate-with-holes meshes.
//
// Artifact: BENCH_solver.json (payload schema "feio.bench.solver/3", the
// feio.report/1 bench envelope; see docs/BENCHMARKS.md). `--quick`
// restricts the harness to two small meshes (the CI smoke configuration).
// Exits 1 when a parallel result diverges from its serial arm.
#include <cstdio>
#include <cstring>
#include <fstream>

#include "scenarios/solver_bench.h"

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") != 0) {
      std::fprintf(stderr, "usage: bench_solver [--quick]\n");
      return 2;
    }
    quick = true;
  }

  const feio::scenarios::SolverBenchReport report =
      feio::scenarios::run_solver_bench(/*threads=*/0, quick);
  std::printf("%s", report.render_table().c_str());
  std::ofstream("BENCH_solver.json") << report.render_json();
  std::printf("wrote BENCH_solver.json%s\n",
              report.all_identical()
                  ? ""
                  : "  ** PARALLEL OUTPUT DIVERGED FROM SERIAL **");
  return report.all_identical() ? 0 : 1;
}
