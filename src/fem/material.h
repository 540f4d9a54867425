// Elastic material models for the plane/axisymmetric substrate.
//
// The paper's example structures mix isotropic metals and glass with
// orthotropic GRP (glass-reinforced plastic) cylinders (Figures 15/16), so
// the material model supports orthotropy with the 1-2-3 axes mapped to
// (x, y, out-of-plane) for plane analyses and (r, z, hoop) for
// axisymmetric ones.
#pragma once

#include <array>

namespace feio::fem {

enum class Analysis {
  kPlaneStress,
  kPlaneStrain,
  kAxisymmetric,
};

struct Material {
  double e1 = 1.0;   // modulus along axis 1 (x / r)
  double e2 = 1.0;   // modulus along axis 2 (y / z)
  double e3 = 1.0;   // modulus along axis 3 (out-of-plane / hoop)
  double nu12 = 0.0; // -eps2/eps1 under sigma1
  double nu13 = 0.0;
  double nu23 = 0.0;
  double g12 = 0.5;  // in-plane shear modulus

  static Material isotropic(double e, double nu);
  static Material orthotropic(double e1, double e2, double e3, double nu12,
                              double nu13, double nu23, double g12);

  bool is_isotropic() const;
};

// Constitutive matrix in engineering (Voigt) form over the strain vector
// (eps11, eps22, eps33, gamma12). For plane stress, row/column 3 enforce
// sigma33 = 0 (the slot is kept so element code is analysis-agnostic); for
// plane strain, eps33 = 0; for axisymmetric, all four couple.
using DMatrix = std::array<std::array<double, 4>, 4>;

// Builds D for the analysis type. Throws feio::Error when the material is
// thermodynamically inadmissible (compliance not positive definite).
DMatrix constitutive(const Material& m, Analysis analysis);

// constitutive() over an element loop: D is rebuilt only when the material
// object changes, so elements sharing a material share one D, and an
// inadmissible material still throws at the first element using it.
struct ConstitutiveCache {
  Analysis analysis;
  const Material* last = nullptr;
  DMatrix d{};
  const DMatrix& operator()(const Material& m) {
    if (&m != last) {
      d = constitutive(m, analysis);
      last = &m;
    }
    return d;
  }
};

}  // namespace feio::fem
