// The paper's evaluation gallery: builders for every figure's idealization
// and, for the analysis figures (13-18), the full IDLZ -> FEM -> OSPL chain.
//
// The original report idealizes classified Navy hardware (DSSV/DSRV
// viewports and hatches, GRP cylinders, glass spheres) from drawings we do
// not have; each builder constructs a geometrically analogous cross-section
// that uses the same subdivision types, the same shaping devices (lines,
// compound arcs, degenerate triangle sides) and produces the same kind of
// plot. DESIGN.md records the substitution.
#pragma once

#include <string>
#include <vector>

#include "fem/material.h"
#include "idlz/idlz.h"
#include "ospl/ospl.h"

namespace feio::scenarios {

// ---- Idealization-only figures -----------------------------------------

idlz::IdlzCase fig02_rectangle();
// Figure 3: single-step trapezoids. sign = +1 / -1 (NTAPRW or NTAPCM).
idlz::IdlzCase fig03_trapezoid_row(int sign);
idlz::IdlzCase fig03_trapezoid_col(int sign);
// Figure 4: two-step trapezoids.
idlz::IdlzCase fig04_trapezoid_row(int sign);
idlz::IdlzCase fig04_trapezoid_col(int sign);
// Figure 5: NTAPCM = +3 fan.
idlz::IdlzCase fig05_trapezoid_col3();
// Figure 1 / 17: internally reinforced glass joint (trapezoid-graded).
idlz::IdlzCase fig01_glass_joint();
// Figure 6: glass viewport juncture with metal ring.
idlz::IdlzCase fig06_viewport_juncture();
// Figure 7: DSSV viewport (triangular subdivision bevel).
idlz::IdlzCase fig07_dssv_viewport();
// Figure 8: DSSV viewport and transition ring.
idlz::IdlzCase fig08_viewport_transition_ring();
// Figure 9: DSRV hatch (compound arcs; the 100-boundary-node claim).
idlz::IdlzCase fig09_dsrv_hatch();
// Figure 10: trapezoid shaped so element reform is necessary.
idlz::IdlzCase fig10_needle_trapezoid();
// Figure 11: circular ring (the three optional plot kinds).
idlz::IdlzCase fig11_circular_ring();
// Figure 14 geometry: half T-beam cross-section.
idlz::IdlzCase fig14_tee_beam();
// Figures 15/16 geometry: orthotropic cylinder with titanium end closure.
idlz::IdlzCase fig15_cylinder_closure(bool stiffened);
// Figure 18 geometry: hemispherical hatch of a glass sphere.
idlz::IdlzCase fig18_sphere_hatch();
// Plane-stress demonstration (the paper: "IDLZ and OSPL work equally as
// well with any plane stress or plane strain analysis program"): quarter
// plate with a circular hole, O-grid of two ring subdivisions.
idlz::IdlzCase kirsch_plate();

struct NamedCase {
  std::string id;     // e.g. "fig09"
  std::string what;   // paper caption, abbreviated
  idlz::IdlzCase c;
};
// Every idealization figure, for sweep-style tests and benches.
std::vector<NamedCase> all_idealizations();

// ---- Figure 12: the OSPL concept ----------------------------------------

// One triangle ABC with corner values 5, 15 and 32 at a fixed interval of
// 10, so isograms 10, 20 and 30 cross it.
ospl::OsplCase fig12_concept();

// ---- Helpers ------------------------------------------------------------

// Node ids (into result.mesh) along one side of subdivision `sub_index`
// (index into c.subdivisions), in strip order. Works after renumbering.
std::vector<int> side_nodes(const idlz::IdlzCase& c,
                            const idlz::IdlzResult& r, int sub_index,
                            idlz::Side side);

// ---- Analysis figures (IDLZ -> FEM -> nodal fields) ---------------------

struct FieldOutput {
  std::string name;            // e.g. "EFFECTIVE STRESS"
  std::vector<double> values;  // one per node of `idlz.mesh`
  double suggested_delta = 0.0;  // 0 = automatic (Appendix D)
};

struct AnalysisOutput {
  std::string id;
  std::string title;
  idlz::IdlzResult idlz;
  std::vector<FieldOutput> fields;
  // Nodal displacements for the static analyses (empty for the thermal
  // chain); feeds plot::plot_deformed.
  std::vector<geom::Vec2> displacement;
};

// Figure 13: DSSV bottom hatch under external pressure -> effective stress.
AnalysisOutput fig13_analysis();
// Figure 13's caption reads "MODIFIED FOR CONTACT": the same hatch with the
// seat modelled as unilateral contact supports instead of fixed nodes. The
// extra field "SEAT REACTION" reports which rim nodes bear (value = nodal
// reaction, 0 = lifted off).
AnalysisOutput fig13_contact_analysis();
// Figure 14: T-beam under a thermal radiation pulse -> temperature at
// t = 2 s and t = 3 s.
AnalysisOutput fig14_analysis();
// Extension: the t = 2 s temperature field fed back as a thermal-strain
// load (the analysis the paper's Reference 3 temperatures exist to serve)
// -> effective thermal stress.
AnalysisOutput fig14_thermal_stress_analysis();
// Figure 15: stiffened GRP cylinder + titanium closure under external
// pressure -> circumferential and shear stress.
AnalysisOutput fig15_analysis();
// Figure 16: unstiffened variant -> effective and circumferential stress.
AnalysisOutput fig16_analysis();
// Figure 17: internally reinforced glass joint -> meridional and radial
// stress (normalized by the applied pressure).
AnalysisOutput fig17_analysis();
// Figure 18: glass-sphere hatch -> circumferential and effective stress.
AnalysisOutput fig18_analysis();
// Kirsch problem: remote tension on the holed plate -> sigma_x field whose
// concentration at the top of the hole approaches 3x the remote stress.
AnalysisOutput kirsch_analysis();

std::vector<AnalysisOutput> all_analyses();

}  // namespace feio::scenarios
