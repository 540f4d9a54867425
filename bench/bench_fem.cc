// FEM substrate scaling: the costs behind the figures' analyses.
//
// Measures static assembly+solve vs element count (the envelope LDL^T
// cost, ~n * bw^2 on a strip), the thermal stepper vs step count, and
// stress recovery — so the end-to-end analysis-chain times in
// bench_contours decompose cleanly.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "fem/skyline.h"
#include "fem/solver.h"
#include "fem/stress.h"
#include "fem/thermal.h"

using namespace feio;

namespace {

// Nodes are numbered along the short (y) dimension so a long strip keeps a
// narrow band — the numbering IDLZ's renumber pass would produce.
mesh::TriMesh strip(int nx, int ny) {
  mesh::TriMesh m;
  for (int i = 0; i <= nx; ++i) {
    for (int j = 0; j <= ny; ++j) {
      m.add_node({static_cast<double>(i), static_cast<double>(j)});
    }
  }
  auto id = [ny](int i, int j) { return i * (ny + 1) + j; };
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      m.add_element(id(i, j), id(i + 1, j), id(i + 1, j + 1));
      m.add_element(id(i, j), id(i + 1, j + 1), id(i, j + 1));
    }
  }
  return m;
}

fem::StaticProblem clamp_and_pull(const mesh::TriMesh& m, int nx, int ny) {
  fem::StaticProblem prob(m, fem::Analysis::kPlaneStress);
  prob.set_material(fem::Material::isotropic(1.0e7, 0.3));
  auto id = [ny](int i, int j) { return i * (ny + 1) + j; };
  for (int j = 0; j <= ny; ++j) prob.fix(id(0, j), true, true);
  for (int j = 0; j <= ny; ++j) prob.point_load(id(nx, j), {100.0, 0.0});
  return prob;
}

void print_report() {
  std::printf("==== FEM substrate scaling ====\n");
  std::printf("%-12s %8s %8s %12s\n", "mesh", "dofs", "dof bw",
              "env doubles");
  for (int nx : {16, 32, 64, 128}) {
    const int ny = 4;
    const mesh::TriMesh m = strip(nx, ny);
    const fem::StaticProblem prob = clamp_and_pull(m, nx, ny);
    const fem::SkylineMatrix k(prob.dof_skyline_lows());
    std::printf("%4dx%-7d %8d %8d %12zu\n", nx, ny, prob.num_dofs(),
                prob.dof_half_bandwidth(), k.storage());
  }
  std::printf("(timings below; long strips keep the bandwidth constant so\n"
              " cost grows linearly with length, the 1970 design point)\n\n");
}

void BM_StaticSolve(benchmark::State& state) {
  const int nx = static_cast<int>(state.range(0));
  const int ny = 4;
  const mesh::TriMesh m = strip(nx, ny);
  const fem::StaticProblem prob = clamp_and_pull(m, nx, ny);
  for (auto _ : state) {
    fem::StaticSolution sol = fem::solve(prob, RunOptions{});
    benchmark::DoNotOptimize(sol.displacement.back().x);
  }
  state.counters["elements"] = 2.0 * nx * ny;
}
BENCHMARK(BM_StaticSolve)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_SolveWideVsNarrow(benchmark::State& state) {
  // Same element count, different aspect: the square mesh has a much
  // larger bandwidth than the strip.
  const bool square = state.range(0) != 0;
  const int nx = square ? 23 : 128;
  const int ny = square ? 23 : 4;
  const mesh::TriMesh m = strip(nx, ny);
  const fem::StaticProblem prob = clamp_and_pull(m, nx, ny);
  for (auto _ : state) {
    fem::StaticSolution sol = fem::solve(prob, RunOptions{});
    benchmark::DoNotOptimize(sol.displacement.back().x);
  }
  state.SetLabel(square ? "square 23x23 (wide band)"
                        : "strip 128x4 (narrow band)");
  state.counters["dof_bw"] = prob.dof_half_bandwidth();
}
BENCHMARK(BM_SolveWideVsNarrow)->Arg(0)->Arg(1);

void BM_StressRecovery(benchmark::State& state) {
  const int nx = 64;
  const int ny = 4;
  const mesh::TriMesh m = strip(nx, ny);
  const fem::StaticProblem prob = clamp_and_pull(m, nx, ny);
  const fem::StaticSolution sol = fem::solve(prob, RunOptions{});
  for (auto _ : state) {
    auto field =
        fem::nodal_field(prob, sol, fem::StressComponent::kEffective);
    benchmark::DoNotOptimize(field.back());
  }
}
BENCHMARK(BM_StressRecovery);

void BM_ThermalStep(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  const mesh::TriMesh m = strip(40, 4);
  fem::ThermalProblem prob(m, fem::Analysis::kPlaneStress);
  prob.set_material({1.0, 1.0});
  prob.add_pulse({0, 1, 10.0, 0.0, 0.5});  // the x=0 edge, column-major ids
  const double dt = 1.0 / steps;
  for (auto _ : state) {
    auto snaps = prob.integrate(dt, 1.0, {1.0});
    benchmark::DoNotOptimize(snaps[0][0]);
  }
  state.counters["steps"] = steps;
}
BENCHMARK(BM_ThermalStep)->Arg(10)->Arg(50)->Arg(250);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
