#include "fem/thermal.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "fem/skyline.h"
#include "mesh/bandwidth.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace feio::fem {

ThermalProblem::ThermalProblem(const mesh::TriMesh& mesh, Analysis analysis,
                               double thickness)
    : mesh_(&mesh), analysis_(analysis), thickness_(thickness) {
  FEIO_REQUIRE(mesh.num_nodes() > 0, "empty mesh");
}

void ThermalProblem::add_pulse(const FluxPulse& p) {
  FEIO_ASSERT(p.n1 >= 0 && p.n1 < mesh_->num_nodes());
  FEIO_ASSERT(p.n2 >= 0 && p.n2 < mesh_->num_nodes());
  FEIO_REQUIRE(p.until > p.from, "pulse must have positive duration");
  pulses_.push_back(p);
}

void ThermalProblem::fix_temperature(int node, double value) {
  FEIO_ASSERT(node >= 0 && node < mesh_->num_nodes());
  fixed_.push_back(FixedTemperature{node, value});
}

std::vector<std::vector<double>> ThermalProblem::integrate(
    double dt, double t_end, const std::vector<double>& snapshots) const {
  FEIO_REQUIRE(dt > 0.0, "dt must be positive");
  FEIO_REQUIRE(t_end >= dt, "t_end must cover at least one step");
  FEIO_TRACE_SPAN(span, "fem.thermal.integrate");
  span.arg("nodes", mesh_->num_nodes());

  const int n = mesh_->num_nodes();
  // System matrix A = C/dt + K (constant over the run) and the lumped
  // capacitance diagonal.
  SkylineMatrix a(mesh::lowest_neighbors(*mesh_));
  std::vector<double> cap(static_cast<size_t>(n), 0.0);
  for (int e = 0; e < mesh_->num_elements(); ++e) {
    const ThermalElement te = thermal_matrices(
        *mesh_, e, material_.conductivity,
        material_.volumetric_heat_capacity, analysis_, thickness_);
    const mesh::Element& el = mesh_->element(e);
    for (int i = 0; i < 3; ++i) {
      cap[static_cast<size_t>(el.n[static_cast<size_t>(i)])] +=
          te.lumped_capacitance_per_node;
      for (int j = 0; j <= i; ++j) {
        a.add(el.n[static_cast<size_t>(i)], el.n[static_cast<size_t>(j)],
              te.k[static_cast<size_t>(i)][static_cast<size_t>(j)]);
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    a.add(i, i, cap[static_cast<size_t>(i)] / dt);
  }

  // Dirichlet rows: apply once with a dummy rhs to zero the couplings, and
  // remember the rhs corrections to re-apply each step.
  std::vector<double> dirichlet_template(static_cast<size_t>(n), 0.0);
  for (const FixedTemperature& f : fixed_) {
    a.apply_dirichlet(f.node, f.value, dirichlet_template);
  }
  a.factorize();

  // Per-unit-flux nodal loads for each pulse.
  auto edge_load = [&](const FluxPulse& p, std::vector<double>& q) {
    const geom::Vec2 x1 = mesh_->pos(p.n1);
    const geom::Vec2 x2 = mesh_->pos(p.n2);
    const double len = geom::distance(x1, x2);
    if (analysis_ == Analysis::kAxisymmetric) {
      const double two_pi = 2.0 * std::numbers::pi;
      q[static_cast<size_t>(p.n1)] +=
          p.flux * two_pi * len * (2.0 * x1.x + x2.x) / 6.0;
      q[static_cast<size_t>(p.n2)] +=
          p.flux * two_pi * len * (x1.x + 2.0 * x2.x) / 6.0;
    } else {
      const double f = p.flux * len * thickness_ / 2.0;
      q[static_cast<size_t>(p.n1)] += f;
      q[static_cast<size_t>(p.n2)] += f;
    }
  };

  std::vector<double> temp(static_cast<size_t>(n), initial_);
  for (const FixedTemperature& f : fixed_) {
    temp[static_cast<size_t>(f.node)] = f.value;
  }

  std::vector<std::vector<double>> results;
  size_t snap = 0;
  const int steps = static_cast<int>(std::llround(t_end / dt));
  for (int step = 1; step <= steps && snap < snapshots.size(); ++step) {
    const double t = step * dt;
    std::vector<double> rhs(static_cast<size_t>(n), 0.0);
    for (int i = 0; i < n; ++i) {
      rhs[static_cast<size_t>(i)] =
          cap[static_cast<size_t>(i)] / dt * temp[static_cast<size_t>(i)];
    }
    for (const FluxPulse& p : pulses_) {
      if (t > p.from && t <= p.until + 1e-12) edge_load(p, rhs);
    }
    for (int i = 0; i < n; ++i) {
      rhs[static_cast<size_t>(i)] += dirichlet_template[static_cast<size_t>(i)];
    }
    for (const FixedTemperature& f : fixed_) {
      rhs[static_cast<size_t>(f.node)] = f.value;
    }
    a.solve(rhs);
    temp = rhs;
    FEIO_METRIC_ADD("fem.thermal.steps", 1);

    while (snap < snapshots.size() &&
           t + dt / 2.0 >= snapshots[snap]) {
      results.push_back(temp);
      ++snap;
    }
  }
  FEIO_REQUIRE(results.size() == snapshots.size(),
               "integration ended before the last snapshot time");
  return results;
}

}  // namespace feio::fem
