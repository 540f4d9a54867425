#include "fem/assembly.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "mesh/bandwidth.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/guard.h"
#include "util/trace.h"

namespace feio::fem {

StaticProblem::StaticProblem(const mesh::TriMesh& mesh, Analysis analysis,
                             double thickness)
    : mesh_(&mesh), analysis_(analysis), thickness_(thickness) {
  FEIO_REQUIRE(mesh.num_nodes() > 0, "empty mesh");
  FEIO_REQUIRE(thickness > 0.0, "thickness must be positive");
  element_material_.resize(static_cast<size_t>(mesh.num_elements()));
}

void StaticProblem::set_material(const Material& m) { default_material_ = m; }

void StaticProblem::set_element_material(int element, const Material& m) {
  FEIO_ASSERT(element >= 0 && element < mesh_->num_elements());
  element_material_[static_cast<size_t>(element)] = m;
}

const Material& StaticProblem::material_of(int element) const {
  const auto& opt = element_material_[static_cast<size_t>(element)];
  return opt.has_value() ? *opt : default_material_;
}

void StaticProblem::fix(int node, bool x, bool y, double ux, double uy) {
  FEIO_ASSERT(node >= 0 && node < mesh_->num_nodes());
  constraints_.push_back(Constraint{node, x, y, ux, uy});
}

void StaticProblem::point_load(int node, geom::Vec2 f) {
  FEIO_ASSERT(node >= 0 && node < mesh_->num_nodes());
  loads_.push_back(PointLoad{node, f});
}

void StaticProblem::edge_pressure(int n1, int n2, double p) {
  FEIO_ASSERT(n1 >= 0 && n1 < mesh_->num_nodes());
  FEIO_ASSERT(n2 >= 0 && n2 < mesh_->num_nodes());
  FEIO_REQUIRE(n1 != n2, "pressure edge needs two distinct nodes");
  pressures_.push_back(EdgePressure{n1, n2, p});
}

void StaticProblem::set_temperature_load(std::vector<double> nodal_temperature,
                                         double expansion_coefficient,
                                         double reference_temperature) {
  FEIO_REQUIRE(static_cast<int>(nodal_temperature.size()) ==
                   mesh_->num_nodes(),
               "one temperature per node required");
  temperature_ = std::move(nodal_temperature);
  alpha_ = expansion_coefficient;
  t_ref_ = reference_temperature;
}

double StaticProblem::element_thermal_strain(int element) const {
  if (temperature_.empty()) return 0.0;
  const mesh::Element& el = mesh_->element(element);
  const double tbar = (temperature_[static_cast<size_t>(el.n[0])] +
                       temperature_[static_cast<size_t>(el.n[1])] +
                       temperature_[static_cast<size_t>(el.n[2])]) /
                      3.0;
  return alpha_ * (tbar - t_ref_);
}

int StaticProblem::dof_half_bandwidth() const {
  int node_bw = 0;
  for (const mesh::Element& el : mesh_->elements()) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        node_bw = std::max(node_bw, std::abs(el.n[static_cast<size_t>(i)] -
                                             el.n[static_cast<size_t>(j)]));
      }
    }
  }
  return 2 * node_bw + 1;
}

namespace {

// The element-stiffness loop: each CST's 21 lower-triangle entries are
// added straight into the envelope (allocated from the structure before
// assembly starts), in ascending element order.
void assemble_stiffness(const StaticProblem& p, SkylineMatrix& k) {
  const mesh::TriMesh& mesh = p.mesh();
  const int ne = mesh.num_elements();
  for (int e = 0; e < ne; ++e) {
    // Coarse cancel granularity: one thread-local load per 512 elements.
    if ((e & 511) == 0) FEIO_CHECK_CANCEL("fem.assemble.element");
    const DMatrix d = constitutive(p.material_of(e), p.analysis());
    const ElementMatrices em =
        cst_matrices(mesh, e, d, p.analysis(), p.thickness());
    const mesh::Element& el = mesh.element(e);
    std::array<int, 6> dof{};
    for (int i = 0; i < 3; ++i) {
      dof[static_cast<size_t>(2 * i)] = 2 * el.n[static_cast<size_t>(i)];
      dof[static_cast<size_t>(2 * i + 1)] =
          2 * el.n[static_cast<size_t>(i)] + 1;
    }
    for (int r = 0; r < 6; ++r) {
      for (int c = 0; c <= r; ++c) {
        k.add(dof[static_cast<size_t>(r)], dof[static_cast<size_t>(c)],
              em.k[static_cast<size_t>(r)][static_cast<size_t>(c)]);
      }
    }
  }
}

}  // namespace

std::vector<int> StaticProblem::dof_skyline_lows() const {
  const std::vector<int> low_node = mesh::lowest_neighbors(*mesh_);
  std::vector<int> low(static_cast<size_t>(num_dofs()));
  for (size_t n = 0; n < low_node.size(); ++n) {
    // Both dofs of node n reach down to the x-dof of its lowest-numbered
    // coupled node (which is n itself when nothing lower couples in).
    low[2 * n] = 2 * low_node[n];
    low[2 * n + 1] = 2 * low_node[n];
  }
  return low;
}

void StaticProblem::assemble(SkylineMatrix& k, std::vector<double>& rhs,
                             std::vector<DirichletRhsOp>* record) const {
  assemble_unconstrained(k, rhs);
  FEIO_REQUIRE(!constraints_.empty(),
               "structure has no constraints (rigid-body motion)");
  for (const Constraint& c : constraints_) {
    if (c.fix_x) k.apply_dirichlet(2 * c.node, c.value_x, rhs, record);
    if (c.fix_y) k.apply_dirichlet(2 * c.node + 1, c.value_y, rhs, record);
  }
}

void StaticProblem::assemble_unconstrained(SkylineMatrix& k,
                                           std::vector<double>& rhs) const {
  FEIO_REQUIRE(k.size() == num_dofs(), "stiffness matrix size mismatch");
  FEIO_TRACE_SPAN(span, "fem.assemble");
  span.arg("elements", mesh_->num_elements());
  util::guard_check_dofs(num_dofs(), "stiffness dofs");
  FEIO_FAULT("fem.assemble");
  assemble_stiffness(*this, k);
  assemble_load_rhs(rhs);
}

void StaticProblem::assemble_load_rhs(std::vector<double>& rhs) const {
  rhs.assign(static_cast<size_t>(num_dofs()), 0.0);

  // Equivalent nodal loads of the thermal strain: f = w * B^T D eps_th,
  // added element by element in ascending element order.
  if (!temperature_.empty()) {
    for (int e = 0; e < mesh_->num_elements(); ++e) {
      const double eth = element_thermal_strain(e);
      if (eth == 0.0) continue;
      const DMatrix d = constitutive(material_of(e), analysis_);
      const ElementMatrices em =
          cst_matrices(*mesh_, e, d, analysis_, thickness_);
      // Isotropic expansion: eps_th = eth in the three normal components.
      std::array<double, 4> deps{};
      for (int r = 0; r < 4; ++r) {
        deps[static_cast<size_t>(r)] =
            (d[static_cast<size_t>(r)][0] + d[static_cast<size_t>(r)][1] +
             d[static_cast<size_t>(r)][2]) *
            eth;
      }
      const mesh::Element& el = mesh_->element(e);
      for (int c = 0; c < 6; ++c) {
        double f = 0.0;
        for (int r = 0; r < 4; ++r) {
          f += em.b[static_cast<size_t>(r)][static_cast<size_t>(c)] *
               deps[static_cast<size_t>(r)];
        }
        const int dof = 2 * el.n[static_cast<size_t>(c / 2)] + (c % 2);
        rhs[static_cast<size_t>(dof)] += f * em.weight;
      }
    }
  }

  for (const PointLoad& pl : loads_) {
    rhs[static_cast<size_t>(2 * pl.node)] += pl.force.x;
    rhs[static_cast<size_t>(2 * pl.node + 1)] += pl.force.y;
  }

  for (const EdgePressure& ep : pressures_) {
    const geom::Vec2 a = mesh_->pos(ep.n1);
    const geom::Vec2 b = mesh_->pos(ep.n2);
    const geom::Vec2 t = b - a;
    const double len = t.norm();
    FEIO_REQUIRE(len > 0.0, "zero-length pressure edge");
    const geom::Vec2 normal = t.perp() / len;  // left normal of n1->n2

    if (analysis_ == Analysis::kAxisymmetric) {
      // Consistent load for linearly-varying circumference 2*pi*r along
      // the edge: node i gets p * 2*pi * L * (2*r_i + r_j) / 6.
      const double two_pi = 2.0 * std::numbers::pi;
      const double f1 = ep.p * two_pi * len * (2.0 * a.x + b.x) / 6.0;
      const double f2 = ep.p * two_pi * len * (a.x + 2.0 * b.x) / 6.0;
      rhs[static_cast<size_t>(2 * ep.n1)] += normal.x * f1;
      rhs[static_cast<size_t>(2 * ep.n1 + 1)] += normal.y * f1;
      rhs[static_cast<size_t>(2 * ep.n2)] += normal.x * f2;
      rhs[static_cast<size_t>(2 * ep.n2 + 1)] += normal.y * f2;
    } else {
      const double f = ep.p * len * thickness_ / 2.0;
      for (int n : {ep.n1, ep.n2}) {
        rhs[static_cast<size_t>(2 * n)] += normal.x * f;
        rhs[static_cast<size_t>(2 * n + 1)] += normal.y * f;
      }
    }
  }
}

}  // namespace feio::fem
