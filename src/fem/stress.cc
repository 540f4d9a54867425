#include "fem/stress.h"

#include <cmath>

#include "util/error.h"

namespace feio::fem {

std::vector<Stress> element_stresses(const StaticProblem& problem,
                                     const StaticSolution& solution) {
  const mesh::TriMesh& mesh = problem.mesh();
  std::vector<Stress> out(static_cast<size_t>(mesh.num_elements()));
  ConstitutiveCache constitutive_of{problem.analysis()};
  for (int e = 0; e < mesh.num_elements(); ++e) {
    const DMatrix& d = constitutive_of(problem.material_of(e));
    const mesh::Element& el = mesh.element(e);
    std::array<double, 6> u{};
    for (int i = 0; i < 3; ++i) {
      const geom::Vec2 ui =
          solution.displacement[static_cast<size_t>(el.n[static_cast<size_t>(i)])];
      u[static_cast<size_t>(2 * i)] = ui.x;
      u[static_cast<size_t>(2 * i + 1)] = ui.y;
    }
    Stress s = cst_stress(mesh, e, d, problem.analysis(), u);
    if (problem.has_temperature_load()) {
      // sigma = D (eps_mech - eps_th): subtract the thermal part.
      const double eth = problem.element_thermal_strain(e);
      auto row = [&](int r) {
        return (d[static_cast<size_t>(r)][0] + d[static_cast<size_t>(r)][1] +
                d[static_cast<size_t>(r)][2]) *
               eth;
      };
      s.s11 -= row(0);
      s.s22 -= row(1);
      s.s33 -= row(2);
      s.s12 -= row(3);
    }
    out[static_cast<size_t>(e)] = s;
  }
  return out;
}

std::vector<Stress> nodal_stresses(const mesh::TriMesh& mesh,
                                   const std::vector<Stress>& per_element) {
  FEIO_REQUIRE(static_cast<int>(per_element.size()) == mesh.num_elements(),
               "one stress per element required");
  std::vector<Stress> nodal(static_cast<size_t>(mesh.num_nodes()));
  std::vector<double> weight(static_cast<size_t>(mesh.num_nodes()), 0.0);
  for (int e = 0; e < mesh.num_elements(); ++e) {
    const double a = std::abs(mesh.signed_area(e));
    const Stress& s = per_element[static_cast<size_t>(e)];
    for (int n : mesh.element(e).n) {
      Stress& acc = nodal[static_cast<size_t>(n)];
      acc.s11 += a * s.s11;
      acc.s22 += a * s.s22;
      acc.s33 += a * s.s33;
      acc.s12 += a * s.s12;
      weight[static_cast<size_t>(n)] += a;
    }
  }
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    const double w = weight[static_cast<size_t>(n)];
    if (w <= 0.0) continue;  // isolated node: zero stress
    Stress& s = nodal[static_cast<size_t>(n)];
    s.s11 /= w;
    s.s22 /= w;
    s.s33 /= w;
    s.s12 /= w;
  }
  return nodal;
}

std::vector<double> component(const std::vector<Stress>& nodal,
                              StressComponent which) {
  std::vector<double> out;
  out.reserve(nodal.size());
  for (const Stress& s : nodal) {
    switch (which) {
      case StressComponent::kEffective:
        out.push_back(s.von_mises());
        break;
      case StressComponent::kRadial:
        out.push_back(s.s11);
        break;
      case StressComponent::kMeridional:
        out.push_back(s.s22);
        break;
      case StressComponent::kCircumferential:
        out.push_back(s.s33);
        break;
      case StressComponent::kShear:
        out.push_back(s.s12);
        break;
      case StressComponent::kPrincipalMax:
        out.push_back(s.principal()[0]);
        break;
      case StressComponent::kPrincipalMin:
        out.push_back(s.principal()[1]);
        break;
    }
  }
  return out;
}

std::vector<double> nodal_field(const StaticProblem& problem,
                                const StaticSolution& solution,
                                StressComponent which) {
  return component(
      nodal_stresses(problem.mesh(), element_stresses(problem, solution)),
      which);
}

}  // namespace feio::fem
