// Idealization builders for the paper's figures (geometry only), and
// Figure 12's concept triangle.
#include <cmath>
#include <numbers>

#include "scenarios/scenarios.h"

namespace feio::scenarios {
namespace {

using geom::Vec2;
using idlz::IdlzCase;
using idlz::ShapeLine;
using idlz::ShapingSpec;
using idlz::Subdivision;

constexpr double kDeg = std::numbers::pi / 180.0;

ShapeLine line(int k1, int l1, int k2, int l2, Vec2 p1, Vec2 p2,
               double radius = 0.0) {
  ShapeLine s;
  s.k1 = k1;
  s.l1 = l1;
  s.k2 = k2;
  s.l2 = l2;
  s.p1 = p1;
  s.p2 = p2;
  s.radius = radius;
  return s;
}

Subdivision sub(int id, int k1, int l1, int k2, int l2, int ntaprw = 0,
                int ntapcm = 0) {
  Subdivision s;
  s.id = id;
  s.k1 = k1;
  s.l1 = l1;
  s.k2 = k2;
  s.l2 = l2;
  s.ntaprw = ntaprw;
  s.ntapcm = ntapcm;
  return s;
}

Vec2 polar(double radius, double angle_deg, Vec2 center = {0.0, 0.0}) {
  return center + Vec2{radius * std::cos(angle_deg * kDeg),
                       radius * std::sin(angle_deg * kDeg)};
}

}  // namespace

IdlzCase fig02_rectangle() {
  IdlzCase c;
  c.title = "RECTANGULAR SUBDIVISION";
  c.subdivisions = {sub(1, 1, 1, 6, 9)};
  c.shaping = {{1,
                {line(1, 1, 6, 1, {0, 0}, {5, 0}),
                 // Arc written right-to-left so the CCW rule bulges it up.
                 line(6, 9, 1, 9, {5, 8}, {0, 8}, 8.0)}}};
  return c;
}

IdlzCase fig03_trapezoid_row(int sign) {
  IdlzCase c;
  c.title = std::string("TRAPEZOIDAL SUBDIVISION NTAPRW=") +
            (sign > 0 ? "+1" : "-1");
  c.subdivisions = {sub(1, 1, 1, 9, 5, sign)};
  if (sign > 0) {
    c.shaping = {{1,
                  {line(5, 1, 5, 1, {4, 0}, {4, 0}),        // point side
                   line(1, 5, 9, 5, {0, 4}, {8, 4})}}};
  } else {
    c.shaping = {{1,
                  {line(1, 1, 9, 1, {0, 0}, {8, 0}),
                   line(5, 5, 5, 5, {4, 4}, {4, 4})}}};
  }
  return c;
}

IdlzCase fig03_trapezoid_col(int sign) {
  IdlzCase c;
  c.title = std::string("TRAPEZOIDAL SUBDIVISION NTAPCM=") +
            (sign > 0 ? "+1" : "-1");
  c.subdivisions = {sub(1, 1, 1, 5, 9, 0, sign)};
  if (sign > 0) {
    c.shaping = {{1,
                  {line(1, 5, 1, 5, {0, 4}, {0, 4}),
                   line(5, 1, 5, 9, {4, 0}, {4, 8})}}};
  } else {
    c.shaping = {{1,
                  {line(1, 1, 1, 9, {0, 0}, {0, 8}),
                   line(5, 5, 5, 5, {4, 4}, {4, 4})}}};
  }
  return c;
}

IdlzCase fig04_trapezoid_row(int sign) {
  IdlzCase c;
  c.title = std::string("TRAPEZOIDAL SUBDIVISION NTAPRW=") +
            (sign > 0 ? "+2" : "-2");
  c.subdivisions = {sub(1, 1, 1, 9, 3, 2 * sign)};
  if (sign > 0) {
    c.shaping = {{1,
                  {line(5, 1, 5, 1, {4, 0}, {4, 0}),
                   line(1, 3, 9, 3, {0, 2}, {8, 2})}}};
  } else {
    c.shaping = {{1,
                  {line(1, 1, 9, 1, {0, 0}, {8, 0}),
                   line(5, 3, 5, 3, {4, 2}, {4, 2})}}};
  }
  return c;
}

IdlzCase fig04_trapezoid_col(int sign) {
  IdlzCase c;
  c.title = std::string("TRAPEZOIDAL SUBDIVISION NTAPCM=") +
            (sign > 0 ? "+2" : "-2");
  c.subdivisions = {sub(1, 1, 1, 3, 9, 0, 2 * sign)};
  if (sign > 0) {
    c.shaping = {{1,
                  {line(1, 5, 1, 5, {0, 4}, {0, 4}),
                   line(3, 1, 3, 9, {2, 0}, {2, 8})}}};
  } else {
    c.shaping = {{1,
                  {line(1, 1, 1, 9, {0, 0}, {0, 8}),
                   line(3, 5, 3, 5, {2, 4}, {2, 4})}}};
  }
  return c;
}

IdlzCase fig05_trapezoid_col3() {
  IdlzCase c;
  c.title = "TRAPEZOIDAL SUBDIVISION NTAPCM=+3";
  c.subdivisions = {sub(1, 1, 1, 3, 13, 0, 3)};
  // Fan: the degenerate left side collapses to the corner of a 90-degree
  // wedge; the right side bends along a quarter arc.
  c.shaping = {{1,
                {line(1, 7, 1, 7, {0, 0}, {0, 0}),
                 line(3, 1, 3, 13, {6, 0}, {0, 6}, 6.0)}}};
  return c;
}

IdlzCase fig10_needle_trapezoid() {
  IdlzCase c;
  c.title = "TRAPEZOIDAL SUBDIVISION NTAPRW=-2 (REFORM DEMO)";
  c.subdivisions = {sub(1, 1, 1, 9, 3, -2)};
  // The apex is placed low and far off-centre, so the convenient initial
  // elements come out needle-like (Figure 10a) until reform fixes them.
  c.shaping = {{1,
                {line(1, 1, 9, 1, {0, 0}, {8, 0}),
                 line(5, 3, 5, 3, {7.2, 1.0}, {7.2, 1.0})}}};
  return c;
}

IdlzCase fig01_glass_joint() {
  IdlzCase c;
  c.title = "INTERNALLY REINFORCED GLASS JOINT";
  // Coarse glass below, NTAPRW=+2 refinement into the reinforced joint
  // band, NTAPRW=-2 coarsening above — the rows-3-and-4 crowding the paper
  // points at. Axisymmetric r-z cross-section: glass wall r in [4, 5],
  // reinforcement ring reaching in to r = 3 over z in [2, 5].
  c.subdivisions = {
      sub(1, 3, 1, 7, 4),        // lower glass, coarse
      sub(2, 1, 4, 9, 5, +2),    // refine 5 -> 9 nodes per row
      sub(3, 1, 5, 9, 9),        // joint band, fine
      sub(4, 1, 9, 9, 10, -2),   // coarsen 9 -> 5
      sub(5, 3, 10, 7, 13),      // upper glass, coarse
  };
  c.shaping = {
      {1, {line(3, 1, 7, 1, {4.0, 0.0}, {5.0, 0.0}),
           line(3, 4, 7, 4, {4.0, 2.0}, {5.0, 2.0})}},
      {2, {line(1, 5, 9, 5, {3.0, 2.5}, {5.0, 2.5})}},
      {3, {line(1, 9, 9, 9, {3.0, 4.5}, {5.0, 4.5})}},
      {4, {line(3, 10, 7, 10, {4.0, 5.0}, {5.0, 5.0})}},
      {5, {line(3, 13, 7, 13, {4.0, 7.0}, {5.0, 7.0})}},
  };
  return c;
}

IdlzCase fig06_viewport_juncture() {
  IdlzCase c;
  c.title = "GLASS VIEWPORT JUNCTURE WITH METAL RING";
  c.subdivisions = {
      sub(1, 1, 1, 5, 7),           // conical glass window
      sub(2, 5, 1, 7, 7, 0, -1),    // ring, graded toward the juncture
      sub(3, 7, 3, 9, 5),           // ring, coarse outer band
  };
  c.shaping = {
      {1, {line(1, 1, 1, 7, {0.5, 0.0}, {1.5, 3.0}),
           line(5, 1, 5, 7, {2.5, 0.0}, {3.5, 3.0})}},
      {2, {line(7, 3, 7, 5, {4.0, 1.1}, {4.0, 1.9})}},
      {3, {line(9, 3, 9, 5, {4.6, 1.0}, {4.6, 2.0})}},
  };
  return c;
}

IdlzCase fig07_dssv_viewport() {
  IdlzCase c;
  c.title = "DSSV VIEWPORT";
  c.subdivisions = {
      sub(1, 1, 1, 5, 7),          // window body
      sub(2, 5, 1, 8, 7, 0, -1),   // triangular subdivision: bevel to a point
  };
  c.shaping = {
      {1, {line(1, 1, 1, 7, {0.8, 0.0}, {1.6, 2.4}),
           line(5, 1, 5, 7, {2.8, 0.0}, {2.8, 2.4})}},
      {2, {line(8, 4, 8, 4, {3.8, 1.2}, {3.8, 1.2})}},
  };
  return c;
}

IdlzCase fig08_viewport_transition_ring() {
  IdlzCase c;
  c.title = "DSSV VIEWPORT AND TRANSITION RING";
  c.subdivisions = {
      sub(1, 1, 4, 5, 10),          // window body
      sub(2, 5, 4, 8, 10, 0, -1),   // bevel triangle
      sub(3, 1, 1, 5, 4),           // transition ring skirt below
  };
  c.shaping = {
      {1, {line(1, 4, 1, 10, {0.8, 0.0}, {1.6, 2.4}),
           line(5, 4, 5, 10, {2.8, 0.0}, {2.8, 2.4})}},
      {2, {line(8, 7, 8, 7, {3.8, 1.2}, {3.8, 1.2})}},
      {3, {line(1, 1, 5, 1, {0.5, -1.2}, {3.3, -1.2})}},
  };
  return c;
}

IdlzCase fig09_dsrv_hatch() {
  IdlzCase c;
  c.title = "IDEALIZATION OF DSRV HATCH";
  // Spherical-cap hatch (inner radius 10, outer 11.2 about the origin, from
  // 20 to 90 degrees of latitude) on a rounded rim block. The cap's inner
  // and outer surfaces are compound curves of three arcs each; the rim is
  // bounded by fillet arcs — eleven arcs in all, echoing the paper's "24
  // node coordinates and the radii of eleven circular arcs" claim.
  const double ri = 10.0;
  const double ro = 11.2;
  c.subdivisions = {
      sub(1, 1, 1, 12, 6),   // rim block
      sub(2, 1, 6, 6, 46),   // cap strip
  };

  const Vec2 i20 = polar(ri, 20.0);
  const Vec2 o20 = polar(ro, 20.0);
  const Vec2 rim_top_outer = polar(13.0, 20.0);
  const Vec2 a{9.0, 0.8};     // rim bottom, inner corner
  const Vec2 b{10.2, 0.3};
  const Vec2 cc{11.6, 0.3};
  const Vec2 d{12.8, 0.9};
  const Vec2 right_mid{12.9, 2.6};

  ShapingSpec rim;
  rim.subdivision_id = 1;
  rim.lines = {
      // Bottom: fillet arc, gentle straight, fillet arc.
      line(1, 1, 5, 1, a, b, 2.0),
      line(5, 1, 8, 1, b, cc),
      line(8, 1, 12, 1, cc, d, 2.0),
      // Top: through-thickness line of the cap, extended to the rim edge.
      line(1, 6, 6, 6, i20, o20),
      line(6, 6, 12, 6, o20, rim_top_outer),
      // Sides: one gentle arc inboard, a compound pair outboard.
      line(1, 1, 1, 6, a, i20, 8.0),
      line(12, 1, 12, 3, d, right_mid, 5.0),
      line(12, 3, 12, 6, right_mid, rim_top_outer, 5.0),
  };

  ShapingSpec cap;
  cap.subdivision_id = 2;
  cap.lines = {
      line(1, 6, 1, 19, i20, polar(ri, 42.75), ri),
      line(1, 19, 1, 32, polar(ri, 42.75), polar(ri, 65.5), ri),
      line(1, 32, 1, 46, polar(ri, 65.5), polar(ri, 90.0), ri),
      line(6, 6, 6, 19, o20, polar(ro, 42.75), ro),
      line(6, 19, 6, 32, polar(ro, 42.75), polar(ro, 65.5), ro),
      line(6, 32, 6, 46, polar(ro, 65.5), polar(ro, 90.0), ro),
      line(1, 46, 6, 46, polar(ri, 90.0), polar(ro, 90.0)),
  };
  c.shaping = {rim, cap};
  return c;
}

IdlzCase fig11_circular_ring() {
  IdlzCase c;
  c.title = "CIRCULAR RING IDEALIZED WITH TRIANGULAR SUBDVNS";
  const double ri = 2.0;
  const double ro = 3.0;
  for (int q = 0; q < 4; ++q) {
    const int l1 = 1 + 7 * q;
    const int l2 = 8 + 7 * q;
    c.subdivisions.push_back(sub(q + 1, 1, l1, 3, l2));
    const double a0 = 90.0 * q;
    const double a1 = 90.0 * (q + 1);
    ShapingSpec spec;
    spec.subdivision_id = q + 1;
    spec.lines = {
        line(1, l1, 1, l2, polar(ri, a0), polar(ri, a1), ri),
        line(3, l1, 3, l2, polar(ro, a0), polar(ro, a1), ro),
    };
    c.shaping.push_back(spec);
  }
  return c;
}

IdlzCase fig14_tee_beam() {
  IdlzCase c;
  c.title = "TEMPERATURE DISTRIBUTION IN T-BEAM (HALF SECTION)";
  // Half of the Tee: web on the symmetry plane (x = 0), flange on top.
  c.subdivisions = {
      sub(1, 1, 1, 4, 9),    // web
      sub(2, 1, 9, 13, 12),  // flange
  };
  c.shaping = {
      {1, {line(1, 1, 4, 1, {0.0, 0.0}, {0.75, 0.0}),
           line(1, 9, 4, 9, {0.0, 4.0}, {0.75, 4.0})}},
      {2, {line(1, 9, 13, 9, {0.0, 4.0}, {3.0, 4.0}),
           line(1, 12, 13, 12, {0.0, 4.6}, {3.0, 4.6})}},
  };
  return c;
}

IdlzCase fig15_cylinder_closure(bool stiffened) {
  IdlzCase c;
  c.title = stiffened
                ? "GRP RING-STIFFENED CYLINDER AND END CLOSURE"
                : "RE-DESIGN FOR UNSTIFF CYL AND END CLOSURE";
  const double ri = 10.0;
  const double ro = 10.5;
  const Vec2 dome_center{0.0, 14.0};
  c.subdivisions = {
      sub(1, 1, 1, 4, 15),   // cylinder wall, z = 0..14
      sub(2, 1, 15, 4, 24),  // hemispherical closure
  };
  c.shaping = {
      {1, {line(1, 1, 1, 15, {ri, 0.0}, {ri, 14.0}),
           line(4, 1, 4, 15, {ro, 0.0}, {ro, 14.0})}},
      {2, {line(1, 15, 1, 20, {ri, 14.0}, polar(ri, 50.0, dome_center), ri),
           line(1, 20, 1, 24, polar(ri, 50.0, dome_center),
                polar(ri, 90.0, dome_center), ri),
           line(4, 15, 4, 20, {ro, 14.0}, polar(ro, 50.0, dome_center), ro),
           line(4, 20, 4, 24, polar(ro, 50.0, dome_center),
                polar(ro, 90.0, dome_center), ro),
           line(1, 24, 4, 24, polar(ri, 90.0, dome_center),
                polar(ro, 90.0, dome_center))}},
  };
  if (stiffened) {
    int id = 3;
    for (int l0 : {3, 8, 12}) {
      c.subdivisions.push_back(sub(id, 4, l0, 6, l0 + 2));
      ShapingSpec spec;
      spec.subdivision_id = id;
      // Inboard side is the (already-shaped) cylinder outer wall; only the
      // stiffener tip needs a card (Hint 6).
      spec.lines = {line(6, l0, 6, l0 + 2, {11.5, static_cast<double>(l0 - 1)},
                         {11.5, static_cast<double>(l0 + 1)})};
      c.shaping.push_back(spec);
      ++id;
    }
  }
  return c;
}

IdlzCase fig18_sphere_hatch() {
  IdlzCase c;
  c.title = "NEW HATCH (GLASS SPHERE, HEMISPHERICAL)";
  const double ri = 9.8;
  const double ro = 10.3;
  c.subdivisions = {sub(1, 1, 1, 4, 26)};
  c.shaping = {
      {1, {line(1, 1, 1, 14, polar(ri, 15.0), polar(ri, 52.5), ri),
           line(1, 14, 1, 26, polar(ri, 52.5), polar(ri, 90.0), ri),
           line(4, 1, 4, 14, polar(ro, 15.0), polar(ro, 52.5), ro),
           line(4, 14, 4, 26, polar(ro, 52.5), polar(ro, 90.0), ro),
           line(1, 26, 4, 26, polar(ri, 90.0), polar(ro, 90.0)),
           line(1, 1, 4, 1, polar(ri, 15.0), polar(ro, 15.0))}},
  };
  return c;
}

IdlzCase kirsch_plate() {
  IdlzCase c;
  c.title = "QUARTER PLATE WITH CIRCULAR HOLE";
  // O-grid: an inner ring (hole radius 1 to 2) and an outer ring reaching
  // the square edge at 5. Rows are radial spokes; row 7 is the diagonal.
  c.subdivisions = {
      sub(1, 1, 1, 4, 13),  // inner ring, finer radially
      sub(2, 4, 1, 6, 13),  // outer ring
  };
  const double a = 1.0;
  const double b = 2.0;
  const double edge = 5.0;
  c.shaping = {
      {1, {line(1, 1, 1, 13, {a, 0.0}, {0.0, a}, a),
           line(4, 1, 4, 13, {b, 0.0}, {0.0, b}, b)}},
      {2, {line(6, 1, 6, 7, {edge, 0.0}, {edge, edge}),
           line(6, 7, 6, 13, {edge, edge}, {0.0, edge})}},
  };
  return c;
}

ospl::OsplCase fig12_concept() {
  ospl::OsplCase c;
  c.mesh.add_node({0.0, 0.0}, mesh::BoundaryKind::kBoundarySingle);
  c.mesh.add_node({10.0, 0.0}, mesh::BoundaryKind::kBoundarySingle);
  c.mesh.add_node({4.0, 8.0}, mesh::BoundaryKind::kBoundarySingle);
  c.mesh.add_element(0, 1, 2);
  c.values = {5.0, 15.0, 32.0};
  c.title1 = "TYPICAL OUTPUT VALUES AND RESULTING PLOT";
  c.delta = 10.0;
  return c;
}

std::vector<NamedCase> all_idealizations() {
  std::vector<NamedCase> v;
  v.push_back({"fig01", "internally reinforced glass joint",
               fig01_glass_joint()});
  v.push_back({"fig02", "rectangular subdivision", fig02_rectangle()});
  v.push_back({"fig03a", "trapezoid NTAPRW=+1", fig03_trapezoid_row(+1)});
  v.push_back({"fig03b", "trapezoid NTAPRW=-1", fig03_trapezoid_row(-1)});
  v.push_back({"fig03c", "trapezoid NTAPCM=+1", fig03_trapezoid_col(+1)});
  v.push_back({"fig03d", "trapezoid NTAPCM=-1", fig03_trapezoid_col(-1)});
  v.push_back({"fig04a", "trapezoid NTAPRW=+2", fig04_trapezoid_row(+1)});
  v.push_back({"fig04b", "trapezoid NTAPRW=-2", fig04_trapezoid_row(-1)});
  v.push_back({"fig04c", "trapezoid NTAPCM=+2", fig04_trapezoid_col(+1)});
  v.push_back({"fig04d", "trapezoid NTAPCM=-2", fig04_trapezoid_col(-1)});
  v.push_back({"fig05", "trapezoid NTAPCM=+3 fan", fig05_trapezoid_col3()});
  v.push_back({"fig06", "glass viewport juncture", fig06_viewport_juncture()});
  v.push_back({"fig07", "DSSV viewport", fig07_dssv_viewport()});
  v.push_back({"fig08", "DSSV viewport + transition ring",
               fig08_viewport_transition_ring()});
  v.push_back({"fig09", "DSRV hatch", fig09_dsrv_hatch()});
  v.push_back({"fig10", "reform demo trapezoid", fig10_needle_trapezoid()});
  v.push_back({"fig11", "circular ring", fig11_circular_ring()});
  v.push_back({"fig14", "T-beam half section", fig14_tee_beam()});
  v.push_back({"fig15", "stiffened cylinder + closure",
               fig15_cylinder_closure(true)});
  v.push_back({"fig16", "unstiffened cylinder + closure",
               fig15_cylinder_closure(false)});
  v.push_back({"fig18", "glass sphere hatch", fig18_sphere_hatch()});
  v.push_back({"kirsch", "plane-stress holed plate", kirsch_plate()});
  return v;
}

std::vector<int> side_nodes(const idlz::IdlzCase& c,
                            const idlz::IdlzResult& r, int sub_index,
                            idlz::Side side) {
  const Subdivision& s = c.subdivisions[static_cast<size_t>(sub_index)];
  const std::vector<int>& all =
      r.subdivision_nodes[static_cast<size_t>(sub_index)];
  // subdivision_nodes is strip-major in grid_points() order.
  std::vector<int> offsets(static_cast<size_t>(s.strip_count()) + 1, 0);
  for (int st = 0; st < s.strip_count(); ++st) {
    offsets[static_cast<size_t>(st) + 1] =
        offsets[static_cast<size_t>(st)] + s.strip_width(st);
  }
  std::vector<int> out;
  switch (side) {
    case idlz::Side::kParallelLow:
      for (int j = 0; j < s.strip_width(0); ++j) out.push_back(all[static_cast<size_t>(j)]);
      break;
    case idlz::Side::kParallelHigh: {
      const int st = s.strip_count() - 1;
      for (int j = 0; j < s.strip_width(st); ++j) {
        out.push_back(all[static_cast<size_t>(offsets[static_cast<size_t>(st)] + j)]);
      }
      break;
    }
    case idlz::Side::kCrossLow:
      for (int st = 0; st < s.strip_count(); ++st) {
        out.push_back(all[static_cast<size_t>(offsets[static_cast<size_t>(st)])]);
      }
      break;
    case idlz::Side::kCrossHigh:
      for (int st = 0; st < s.strip_count(); ++st) {
        out.push_back(all[static_cast<size_t>(offsets[static_cast<size_t>(st) + 1] - 1)]);
      }
      break;
  }
  return out;
}

}  // namespace feio::scenarios
