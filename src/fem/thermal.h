// Transient heat conduction on the triangular mesh — the substrate for the
// paper's Reference 3 analysis ("temperature distribution in a T-beam
// exposed to a thermal radiation pulse", Figure 14).
//
// Lumped capacitance, implicit (backward Euler) time stepping on the same
// envelope LDL^T solver as the static analysis: (C/dt + K) T_{n+1} =
// (C/dt) T_n + Q(t_{n+1}). The pulse is a prescribed surface heat flux on
// selected boundary edges, active for a finite duration.
#pragma once

#include <functional>
#include <vector>

#include "fem/element.h"
#include "mesh/tri_mesh.h"

namespace feio::fem {

struct ThermalMaterial {
  double conductivity = 1.0;             // k
  double volumetric_heat_capacity = 1.0; // rho * c
};

// Heat flux applied to boundary edge (n1, n2); positive heats the body.
// Active while `until` > time >= `from`.
struct FluxPulse {
  int n1 = -1;
  int n2 = -1;
  double flux = 0.0;   // per unit area
  double from = 0.0;
  double until = 0.0;
};

struct FixedTemperature {
  int node = -1;
  double value = 0.0;
};

class ThermalProblem {
 public:
  ThermalProblem(const mesh::TriMesh& mesh, Analysis analysis,
                 double thickness = 1.0);

  void set_material(const ThermalMaterial& m) { material_ = m; }
  void add_pulse(const FluxPulse& p);
  void fix_temperature(int node, double value);
  void set_initial_temperature(double t0) { initial_ = t0; }

  const mesh::TriMesh& mesh() const { return *mesh_; }

  // Integrates from t = 0 to t_end with fixed dt; returns the nodal
  // temperature field at each requested snapshot time (nearest step).
  // `snapshots` must be ascending and within (0, t_end].
  std::vector<std::vector<double>> integrate(
      double dt, double t_end, const std::vector<double>& snapshots) const;

 private:
  const mesh::TriMesh* mesh_;
  Analysis analysis_;
  double thickness_;
  ThermalMaterial material_;
  std::vector<FluxPulse> pulses_;
  std::vector<FixedTemperature> fixed_;
  double initial_ = 0.0;
};

}  // namespace feio::fem
