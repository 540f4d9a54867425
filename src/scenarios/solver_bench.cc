#include "scenarios/solver_bench.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

#include "fem/skyline.h"
#include "fem/solver.h"
#include "idlz/assembler.h"
#include "idlz/renumber.h"
#include "idlz/shaping.h"
#include "mesh/bandwidth.h"
#include "scenarios/pipeline_bench.h"
#include "util/diag.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/report.h"

namespace feio::scenarios {
namespace {

using Clock = std::chrono::steady_clock;

// Cells over these caps are reported as skipped instead of run: a bad
// ordering on a big mesh pushes the envelope toward n^2/2, and timing a
// hundred-gigabyte or hours-of-flops factor teaches nothing the byte
// counts don't already say. The flop model is the exact sum of squared
// column heights.
constexpr std::int64_t kStorageBytesCap = std::int64_t{2} << 30;
constexpr std::int64_t kFlopsCapQuick = 200'000'000;        // ~0.1 s
constexpr std::int64_t kFlopsCapFull = 25'000'000'000;      // ~15 s

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Two runs are byte-identical iff every double has the same bit pattern.
bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

// A bench mesh in generation order — the "none" ordering is whatever order
// the generator emitted nodes in (row-major for both families here).
struct BenchMesh {
  std::string tag;
  mesh::TriMesh mesh;
};

mesh::TriMesh strip_mesh(int k_cells, int l_cells, int subs) {
  const idlz::IdlzCase c = strip_case(k_cells, l_cells, subs);
  idlz::Assembly a =
      idlz::assemble(c.subdivisions, c.options.limits, c.options.diagonals);
  idlz::shape(c.subdivisions, c.shaping, a, c.options.limits);
  return std::move(a.mesh);
}

// The Fig. 9-class geometry the skyline path exists for: a 64-cell-wide
// plate, solid for `rim` cell rows at the bottom and top, with two big
// rectangular slots between leaving three 4-cell-wide vertical webs. Most
// node rows hold only the 15 web nodes (short skyline columns), while the
// full-width rim rows pin the half-bandwidth near the plate width — a band
// would pay the worst row everywhere, the envelope only where it must.
// Nodes are emitted row-major (y outer, x ascending), unit cells.
mesh::TriMesh plate_with_holes(int rows) {
  constexpr int kWidth = 64;  // cells across
  constexpr int kRim = 2;     // solid cell rows at bottom and top
  auto in_web = [&](int x) {
    return (x >= 0 && x < 4) || (x >= 30 && x < 34) || (x >= 60 && x < 64);
  };
  auto solid_cell = [&](int x, int y) {
    if (y < kRim || y >= rows - kRim) return true;
    return in_web(x);
  };

  mesh::TriMesh m;
  // node_id[y][x], -1 when the corner touches no solid cell.
  std::vector<std::vector<int>> node_id(
      static_cast<std::size_t>(rows + 1),
      std::vector<int>(static_cast<std::size_t>(kWidth + 1), -1));
  auto corner_used = [&](int x, int y) {
    for (int dy = -1; dy <= 0; ++dy) {
      for (int dx = -1; dx <= 0; ++dx) {
        const int cx = x + dx;
        const int cy = y + dy;
        if (cx < 0 || cx >= kWidth || cy < 0 || cy >= rows) continue;
        if (solid_cell(cx, cy)) return true;
      }
    }
    return false;
  };
  for (int y = 0; y <= rows; ++y) {
    for (int x = 0; x <= kWidth; ++x) {
      if (corner_used(x, y)) {
        node_id[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] =
            m.add_node({static_cast<double>(x), static_cast<double>(y)});
      }
    }
  }
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < kWidth; ++x) {
      if (!solid_cell(x, y)) continue;
      const int a = node_id[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)];
      const int b = node_id[static_cast<std::size_t>(y)][static_cast<std::size_t>(x + 1)];
      const int c = node_id[static_cast<std::size_t>(y + 1)][static_cast<std::size_t>(x + 1)];
      const int d = node_id[static_cast<std::size_t>(y + 1)][static_cast<std::size_t>(x)];
      m.add_element(a, b, c);
      m.add_element(a, c, d);
    }
  }
  return m;
}

std::vector<BenchMesh> bench_meshes(bool quick) {
  std::vector<BenchMesh> meshes;
  if (quick) {
    meshes.push_back({"strip16x60", strip_mesh(16, 60, 6)});
    meshes.push_back({"plate_holes96", plate_with_holes(96)});
  } else {
    meshes.push_back({"strip32x312", strip_mesh(32, 312, 8)});
    meshes.push_back({"strip48x400", strip_mesh(48, 400, 8)});
    meshes.push_back({"plate_holes1000", plate_with_holes(1000)});
    // ~990k dofs: the "up to 10^6" point, inside the caps under none/RCM.
    meshes.push_back({"plate_holes33000", plate_with_holes(33000)});
  }
  return meshes;
}

// Bottom edge clamped, transverse point load at the top-most (then
// right-most) node: the cantilever boundary conditions the v1 harness used,
// generalized to any of the bench meshes.
fem::StaticProblem make_problem(const mesh::TriMesh& mesh) {
  fem::StaticProblem prob(mesh, fem::Analysis::kPlaneStress);
  prob.set_material(fem::Material::isotropic(30.0e6, 0.30));
  double y_min = std::numeric_limits<double>::infinity();
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    y_min = std::min(y_min, mesh.pos(n).y);
  }
  int tip = 0;
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    if (mesh.pos(n).y < y_min + 0.5) prob.fix(n, true, true);
    if (mesh.pos(n).y > mesh.pos(tip).y ||
        (mesh.pos(n).y == mesh.pos(tip).y &&
         mesh.pos(n).x > mesh.pos(tip).x)) {
      tip = n;
    }
  }
  prob.point_load(tip, {1000.0, -500.0});
  return prob;
}

struct Measurement {
  double ms = 0.0;
  bool identical = false;
};

// Min over `reps` runs of the wall time of work(input). Each run's input
// comes from make() before the clock starts; its result is compared with an
// untimed warm-up run's and freed after the clock stops. work(input) must be
// a pure function of its input and return its result.
template <typename Make, typename Work>
Measurement measure(int reps, const Make& make, const Work& work) {
  const std::vector<double> reference = [&] {
    auto input = make();
    return work(input);
  }();
  Measurement m{std::numeric_limits<double>::infinity(), true};
  for (int r = 0; r < reps; ++r) {
    auto input = make();
    const Clock::time_point start = Clock::now();
    const std::vector<double> result = work(input);
    m.ms = std::min(m.ms, ms_since(start));
    m.identical = m.identical && bits_equal(result, reference);
  }
  return m;
}

}  // namespace

bool SolverBenchReport::all_identical() const {
  return std::all_of(cases.begin(), cases.end(),
                     [](const SolverBenchCase& c) { return c.identical; });
}

std::string SolverBenchReport::render_json() const {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\n";
  out << report_header_json("bench");
  out << "  \"payload_schema\": \"feio.bench.solver/4\",\n";
  out << "  \"hardware_threads\": " << hardware_threads << ",\n";
  out << "  \"repetitions\": " << repetitions << ",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"all_identical\": " << (all_identical() ? "true" : "false")
      << ",\n";
  out << "  \"cases\": [";
  for (size_t i = 0; i < cases.size(); ++i) {
    const SolverBenchCase& c = cases[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(c.name) << "\", \"stage\": \""
        << json_escape(c.stage) << "\", \"mesh\": \"" << json_escape(c.mesh)
        << "\", \"ordering\": \"" << json_escape(c.ordering)
        << "\", \"n\": " << c.n << ", \"half_bandwidth\": " << c.half_bandwidth
        << ", \"node_bw\": " << c.node_bw
        << ", \"band_bytes\": " << c.band_bytes
        << ", \"skyline_bytes\": " << c.skyline_bytes
        << ", \"work\": " << c.work
        << ", \"ms\": " << c.ms
        << ", \"identical\": " << (c.identical ? "true" : "false")
        << ", \"skipped\": " << (c.skipped ? "true" : "false") << "}";
  }
  out << (cases.empty() ? "],\n" : "\n  ],\n");
  if (metrics_json.empty()) {
    out << "  \"metrics\": {}\n";
  } else {
    out << "  \"metrics\": {\n" << metrics_json << "  }\n";
  }
  out << "}\n";
  return out.str();
}

std::string SolverBenchReport::render_table() const {
  std::ostringstream out;
  out << "bench_solver: min of " << repetitions << " reps ("
      << hardware_threads << " hardware threads)\n";
  out << "  case                                    n   hbw  envelope"
         "         ms  identical\n";
  for (const SolverBenchCase& c : cases) {
    out << "  " << c.name;
    for (size_t pad = c.name.size(); pad < 36; ++pad) out << ' ';
    const double envelope = static_cast<double>(c.skyline_bytes) /
                            static_cast<double>(std::max<std::int64_t>(
                                c.band_bytes, 1));
    char row[120];
    if (c.skipped) {
      std::snprintf(row, sizeof row,
                    "%9d %5d  %8.3f  skipped (over harness cap; "
                    "%lld bytes)\n",
                    c.n, c.half_bandwidth, envelope,
                    static_cast<long long>(c.skyline_bytes));
    } else {
      std::snprintf(row, sizeof row, "%9d %5d  %8.3f %10.3f  %s\n", c.n,
                    c.half_bandwidth, envelope, c.ms,
                    c.identical ? "yes" : "NO");
    }
    out << row;
  }
  return out.str();
}

SolverBenchReport run_solver_bench(bool quick) {
  SolverBenchReport report;
  report.hardware_threads = util::hardware_threads();
  report.quick = quick;
  report.repetitions = quick ? 5 : 3;

  for (BenchMesh& bm : bench_meshes(quick)) {
    for (const bool rcm : {false, true}) {
      mesh::TriMesh m = bm.mesh;
      if (rcm) {
        m.renumber_nodes(idlz::cuthill_mckee_permutation(m, /*reverse=*/true));
      }
      const fem::StaticProblem prob = make_problem(m);
      const fem::StoragePrediction pred = fem::predict_storage(prob);
      const int n = prob.num_dofs();
      const int hbw = prob.dof_half_bandwidth();
      const int node_bw = mesh::bandwidth(m);
      const char* oname = rcm ? "rcm" : "none";
      // Big systems repeat once: the factor dominates and the min-of-reps
      // guard matters less than the wall-clock budget.
      const int reps = n > 200000 ? 1 : report.repetitions;
      const std::vector<int> lows = prob.dof_skyline_lows();
      std::int64_t work = 0;
      for (int i = 0; i < n; ++i) {
        const std::int64_t h = i - lows[static_cast<std::size_t>(i)] + 1;
        work += h * h;
      }

      auto push = [&](const char* stage, const Measurement& meas,
                      bool skipped) {
        SolverBenchCase c;
        c.name = std::string(stage) + "/" + bm.tag + "/" + oname;
        c.stage = stage;
        c.mesh = bm.tag;
        c.ordering = oname;
        c.n = n;
        c.half_bandwidth = hbw;
        c.node_bw = node_bw;
        c.band_bytes = pred.band_bytes;
        c.skyline_bytes = pred.skyline_bytes;
        c.work = work;
        c.ms = meas.ms;
        c.identical = skipped ? true : meas.identical;
        c.skipped = skipped;
        report.cases.push_back(std::move(c));
      };

      const bool fits = pred.skyline_bytes <= kStorageBytesCap &&
                        work <= (quick ? kFlopsCapQuick : kFlopsCapFull);
      if (!fits) {
        push("assemble", {}, true);
        push("factor_solve", {}, true);
        continue;
      }

      // Stage 1: element assembly into a fresh zeroed envelope.
      push("assemble",
           measure(
               reps, [&] { return fem::SkylineMatrix(lows); },
               [&](fem::SkylineMatrix& k) {
                 std::vector<double> rhs;
                 prob.assemble(k, rhs);
                 return rhs;
               }),
           false);

      // Stage 2: blocked factorize + solve of a fresh copy of the
      // assembled system.
      struct System {
        fem::SkylineMatrix k;
        std::vector<double> rhs;
      };
      System assembled{fem::SkylineMatrix(lows), {}};
      prob.assemble(assembled.k, assembled.rhs);
      push("factor_solve",
           measure(
               reps, [&] { return assembled; },
               [](System& sys) {
                 sys.k.factorize();
                 sys.k.solve(sys.rhs);
                 return std::move(sys.rhs);
               }),
           false);
    }
  }

  // One metered solve of the plate mesh outside the timed loops supplies
  // the metrics snapshot: fem.factorize.panels, fem.static_solves.
  {
    const mesh::TriMesh m = quick ? plate_with_holes(96) : plate_with_holes(400);
    util::MetricsRegistry metrics;
    RunOptions opts;
    opts.metrics = &metrics;
    fem::solve(make_problem(m), opts);
    report.metrics_json = metrics.render_body_json(4);
  }

  return report;
}

}  // namespace feio::scenarios
