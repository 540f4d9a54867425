// Static problem definition and global assembly.
#pragma once

#include <optional>
#include <vector>

#include "fem/element.h"
#include "fem/material.h"
#include "fem/skyline.h"
#include "mesh/tri_mesh.h"

namespace feio::fem {

struct Constraint {
  int node = -1;
  bool fix_x = false;  // u (radial for axisymmetric)
  bool fix_y = false;  // v (axial for axisymmetric)
  double value_x = 0.0;
  double value_y = 0.0;
};

struct PointLoad {
  int node = -1;
  geom::Vec2 force;  // total force (per radian * 2*pi for axisymmetric)
};

// Uniform pressure on the boundary edge (n1, n2), positive pushing along
// the edge's left normal when walking n1 -> n2; for a CCW-oriented mesh
// boundary walked CCW that normal points out of the material, so positive
// p is an outward pull — pass a negative value (or walk the edge CW) for
// external pressure.
struct EdgePressure {
  int n1 = -1;
  int n2 = -1;
  double p = 0.0;
};

class StaticProblem {
 public:
  StaticProblem(const mesh::TriMesh& mesh, Analysis analysis,
                double thickness = 1.0);

  // Materials: one default for all elements, or per-element assignment.
  void set_material(const Material& m);
  void set_element_material(int element, const Material& m);

  void fix(int node, bool x, bool y, double ux = 0.0, double uy = 0.0);
  void point_load(int node, geom::Vec2 f);
  void edge_pressure(int n1, int n2, double p);

  // Thermal-strain loading: nodal temperatures (e.g. a ThermalProblem
  // snapshot), expansion coefficient, and the stress-free reference
  // temperature. Equivalent nodal loads are assembled and the recovered
  // stresses subtract the thermal strain — the coupling that turns the
  // paper's Reference 3 temperature fields into thermal stresses.
  void set_temperature_load(std::vector<double> nodal_temperature,
                            double expansion_coefficient,
                            double reference_temperature);
  bool has_temperature_load() const { return !temperature_.empty(); }
  // Element mean thermal strain (alpha * (Tbar - Tref)); 0 when unset.
  double element_thermal_strain(int element) const;

  const mesh::TriMesh& mesh() const { return *mesh_; }
  Analysis analysis() const { return analysis_; }
  double thickness() const { return thickness_; }
  const Material& material_of(int element) const;

  int num_dofs() const { return 2 * mesh_->num_nodes(); }
  // Dof half-bandwidth implied by the node numbering.
  int dof_half_bandwidth() const;

  // Per-dof skyline structure implied by the node numbering: entry d is
  // the lowest dof column coupled to dof row d (its own diagonal when the
  // node has no lower-numbered neighbour). This is the exact envelope the
  // element assembly fills, so a SkylineMatrix built from it stores the
  // true column heights and nothing more.
  std::vector<int> dof_skyline_lows() const;

  // Assembles stiffness and load vector with constraints applied into a
  // matrix built from dof_skyline_lows(). Exposed (rather than hidden in
  // solve) for the bandwidth bench. When `record` is non-null, the
  // Dirichlet rhs transformation is recorded so the factor cache can
  // replay it against a different load vector (fem/factor_cache.h).
  void assemble(SkylineMatrix& k, std::vector<double>& rhs,
                std::vector<DirichletRhsOp>* record = nullptr) const;

  // Assembles without applying any constraint — the raw K and f needed to
  // recover constraint reactions (R = K u - f), which the contact solver
  // uses to decide which supports carry load.
  void assemble_unconstrained(SkylineMatrix& k,
                              std::vector<double>& rhs) const;

  // Assembles only the unconstrained load vector (thermal equivalent loads,
  // point loads, edge pressures) — no stiffness work. This is the rhs half
  // of assemble_unconstrained, factored out so a factor-cache hit can build
  // a fresh load case without touching K; the arithmetic and its order are
  // identical to the cold path, keeping warm results bit-identical.
  void assemble_load_rhs(std::vector<double>& rhs) const;

  const std::vector<Constraint>& constraints() const { return constraints_; }

  // Load/thermal definition, exposed read-only so the factor cache
  // (fem/factor_cache.h) can hash the full problem content.
  const std::vector<PointLoad>& point_loads() const { return loads_; }
  const std::vector<EdgePressure>& edge_pressures() const {
    return pressures_;
  }
  const std::vector<double>& nodal_temperatures() const {
    return temperature_;
  }
  double expansion_coefficient() const { return alpha_; }
  double reference_temperature() const { return t_ref_; }

 private:
  const mesh::TriMesh* mesh_;
  Analysis analysis_;
  double thickness_;
  Material default_material_ = Material::isotropic(1.0, 0.3);
  std::vector<std::optional<Material>> element_material_;
  std::vector<Constraint> constraints_;
  std::vector<PointLoad> loads_;
  std::vector<EdgePressure> pressures_;
  std::vector<double> temperature_;  // per node; empty = no thermal load
  double alpha_ = 0.0;
  double t_ref_ = 0.0;
};

}  // namespace feio::fem
