// Ablations of the design choices the paper motivates but never measures:
//
//   A1 (claim C6) - node renumbering: "the size of the coefficient matrix
//       bandwidth ... is directly related to the numbering scheme". We
//       measure bandwidth, envelope storage, and LDL^T factor+solve time of
//       the Figure 9 hatch analysis under the assembly numbering vs
//       Cuthill-McKee vs Reverse Cuthill-McKee.
//   A2 - element reform: min-angle population with the reform pass on/off.
//   A3 - automatic vs fixed contour interval: isogram and label counts.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "fem/skyline.h"
#include "fem/solver.h"
#include "idlz/idlz.h"
#include "idlz/smooth.h"
#include "mesh/bandwidth.h"
#include "mesh/quality.h"
#include "ospl/ospl.h"
#include "scenarios/scenarios.h"

using namespace feio;

namespace {

// The stiffened cylinder (Figure 15) is the case where the "arbitrary"
// assembly-order numbering hurts most: the ring stiffeners are numbered
// after the whole shell, coupling low node numbers to high ones.
idlz::IdlzResult cylinder_with(bool renumber, idlz::NumberingScheme scheme) {
  idlz::IdlzCase c = scenarios::fig15_cylinder_closure(true);
  c.options.renumber_nodes = renumber;
  c.options.scheme = scheme;
  return idlz::run(c);
}

fem::StaticProblem cylinder_problem(const mesh::TriMesh& mesh) {
  fem::StaticProblem prob(mesh, fem::Analysis::kAxisymmetric);
  prob.set_material(fem::Material::isotropic(16.5e6, 0.31));
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    const geom::Vec2 p = mesh.pos(n);
    if (std::abs(p.y) < 1e-9) prob.fix(n, false, true);
    if (std::abs(p.x) < 1e-9) prob.fix(n, true, false);
  }
  return prob;
}

void print_report() {
  std::printf(
      "==== A1: numbering scheme ablation (Figure 15 stiffened mesh) ====\n");
  std::printf("%-22s %10s %10s %12s\n", "scheme", "bandwidth", "profile",
              "env doubles");
  struct Variant {
    const char* name;
    bool renumber;
    idlz::NumberingScheme scheme;
  };
  const Variant variants[] = {
      {"assembly order", false, idlz::NumberingScheme::kBest},
      {"Cuthill-McKee", true, idlz::NumberingScheme::kCuthillMcKee},
      {"Reverse Cuthill-McKee", true,
       idlz::NumberingScheme::kReverseCuthillMcKee},
  };
  for (const Variant& v : variants) {
    const idlz::IdlzResult r = cylinder_with(v.renumber, v.scheme);
    const int bw = mesh::bandwidth(r.mesh);
    const fem::StaticProblem prob = cylinder_problem(r.mesh);
    const fem::SkylineMatrix k(prob.dof_skyline_lows());
    std::printf("%-22s %10d %10ld %12zu\n", v.name, bw, mesh::profile(r.mesh),
                k.storage());
  }
  std::printf(
      "(factor+solve timings below; cost scales with profile * height)\n\n");

  std::printf("==== A2: element reform ablation ====\n");
  std::printf("%-8s %18s %18s %14s\n", "figure", "min angle off/on",
              "mean angle off/on", "needles off/on");
  for (const char* id : {"fig09", "fig10", "fig06"}) {
    idlz::IdlzCase c;
    for (const auto& nc : scenarios::all_idealizations()) {
      if (nc.id == id) c = nc.c;
    }
    c.options.reform_elements = false;
    const auto off = mesh::summarize_quality(idlz::run(c).mesh);
    c.options.reform_elements = true;
    const auto on = mesh::summarize_quality(idlz::run(c).mesh);
    std::printf("%-8s %8.1f / %-8.1f %8.1f / %-8.1f %6d / %-6d\n", id,
                off.min_angle_rad * 57.2958, on.min_angle_rad * 57.2958,
                off.mean_min_angle_rad * 57.2958,
                on.mean_min_angle_rad * 57.2958, off.needle_count,
                on.needle_count);
  }
  std::printf(
      "\n==== A2a: diagonal style at element creation (before reform) "
      "====\n");
  std::printf("%-8s %22s %22s\n", "figure", "mean angle unif/altern",
              "needles unif/altern");
  for (const char* id : {"fig02", "fig09", "fig15"}) {
    idlz::IdlzCase c;
    for (const auto& nc : scenarios::all_idealizations()) {
      if (nc.id == id) c = nc.c;
    }
    c.options.reform_elements = false;  // isolate the creation pattern
    c.options.diagonals = idlz::DiagonalStyle::kUniform;
    const auto uni = mesh::summarize_quality(idlz::run(c).mesh);
    c.options.diagonals = idlz::DiagonalStyle::kAlternating;
    const auto alt = mesh::summarize_quality(idlz::run(c).mesh);
    std::printf("%-8s %10.1f / %-10.1f %9d / %-9d\n", id,
                uni.mean_min_angle_rad * 57.2958,
                alt.mean_min_angle_rad * 57.2958, uni.needle_count,
                alt.needle_count);
  }
  std::printf("(reform converges both styles to nearly the same mesh; the\n"
              " choice matters only when reform is disabled)\n");

  std::printf(
      "\n==== A2b: smoothing extension on top of reform (not in the 1970 "
      "program) ====\n");
  std::printf("%-8s %20s %20s\n", "figure", "mean angle ref/+smooth",
              "worst angle ref/+smooth");
  for (const char* id : {"fig09", "fig10", "fig07"}) {
    idlz::IdlzCase c;
    for (const auto& nc : scenarios::all_idealizations()) {
      if (nc.id == id) c = nc.c;
    }
    const idlz::IdlzResult r = idlz::run(c);
    const auto reformed = mesh::summarize_quality(r.mesh);
    mesh::TriMesh m = r.mesh;
    idlz::smooth_interior(m);
    const auto smoothed = mesh::summarize_quality(m);
    std::printf("%-8s %9.1f / %-9.1f %9.1f / %-9.1f\n", id,
                reformed.mean_min_angle_rad * 57.2958,
                smoothed.mean_min_angle_rad * 57.2958,
                reformed.min_angle_rad * 57.2958,
                smoothed.min_angle_rad * 57.2958);
  }

  std::printf("\n==== A3: automatic vs fixed contour interval ====\n");
  const scenarios::AnalysisOutput out = scenarios::fig13_analysis();
  std::printf("%-24s %10s %10s %10s\n", "interval", "levels", "segments",
              "labels");
  for (double delta : {0.0, 100.0, 250.0, 1000.0, 2500.0}) {
    ospl::OsplCase c;
    c.mesh = out.idlz.mesh;
    c.values = out.fields[0].values;
    c.delta = delta;
    const ospl::OsplResult r = ospl::run(c);
    char name[32];
    if (delta == 0.0) {
      std::snprintf(name, sizeof name, "automatic (%g)", r.delta);
    } else {
      std::snprintf(name, sizeof name, "%g", delta);
    }
    std::printf("%-24s %10zu %10zu %10zu\n", name, r.levels.size(),
                r.segments.size(), r.labels.accepted.size());
  }
  std::printf("(the automatic rule keeps the plot readable: <=20 levels "
              "regardless of range)\n\n");
}

void BM_FactorSolve(benchmark::State& state) {
  // state.range(0): 0 = assembly numbering, 1 = CM, 2 = RCM.
  const idlz::NumberingScheme schemes[] = {
      idlz::NumberingScheme::kBest, idlz::NumberingScheme::kCuthillMcKee,
      idlz::NumberingScheme::kReverseCuthillMcKee};
  const bool renumber = state.range(0) != 0;
  const idlz::IdlzResult r =
      cylinder_with(renumber, schemes[state.range(0)]);
  const fem::StaticProblem prob = cylinder_problem(r.mesh);
  for (auto _ : state) {
    fem::SkylineMatrix k(prob.dof_skyline_lows());
    std::vector<double> rhs;
    prob.assemble(k, rhs);
    k.factorize();
    k.solve(rhs);
    benchmark::DoNotOptimize(rhs[0]);
  }
  static const char* labels[] = {"assembly order", "Cuthill-McKee",
                                 "Reverse Cuthill-McKee"};
  state.SetLabel(std::string(labels[state.range(0)]) + ", dof bandwidth " +
                 std::to_string(prob.dof_half_bandwidth()));
}
BENCHMARK(BM_FactorSolve)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

void BM_ReformPass(benchmark::State& state) {
  idlz::IdlzCase c = scenarios::fig09_dsrv_hatch();
  c.options.reform_elements = state.range(0) != 0;
  for (auto _ : state) {
    idlz::IdlzResult r = idlz::run(c);
    benchmark::DoNotOptimize(r.reform.flips);
  }
  state.SetLabel(state.range(0) ? "reform on" : "reform off");
}
BENCHMARK(BM_ReformPass)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
