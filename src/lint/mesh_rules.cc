// L-MESH-*: lints on the idealization itself — the mesh a deck produces
// after assemble/shape/reform. These are the findings an analyst would
// otherwise discover only in the check plot (needles, Figure 9b) or in the
// analysis program's run time (bandwidth).
#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "idlz/renumber.h"
#include "lint/lint.h"
#include "mesh/bandwidth.h"
#include "mesh/quality.h"
#include "mesh/topology.h"
#include "util/text.h"

namespace feio::lint {
namespace {

constexpr double kPi = 3.14159265358979323846;

// An element with min angle below this is a needle (L-MESH-001).
constexpr double kNeedleDeg = 20.0;
// L-MESH-005 fires when a renumbering dry run cuts the bandwidth by at
// least this percentage, and the original bandwidth is at least
// kMinBandwidth (tiny meshes are noise).
constexpr double kBandwidthGainPct = 25.0;
constexpr int kMinBandwidth = 5;

}  // namespace

void lint_mesh(const mesh::TriMesh& mesh, const idlz::IdlzCase& c,
               DiagSink& sink) {
  const SourceLoc loc{c.deck_name, 0, 0, 0};
  if (mesh.num_elements() == 0) return;

  // L-MESH-001: needle elements that survived the reform pass.
  const double threshold_rad = kNeedleDeg * kPi / 180.0;
  const mesh::QualitySummary q = mesh::summarize_quality(mesh, threshold_rad);
  if (q.needle_count > 0) {
    std::string msg = std::to_string(q.needle_count) + " of " +
                      std::to_string(mesh.num_elements()) +
                      " elements are needles (min angle below ";
    append_fixed(msg, kNeedleDeg, 0);
    msg += " degrees; worst ";
    append_fixed(msg, q.min_angle_rad * 180.0 / kPi, 1);
    msg += " degrees)";
    sink.warning("L-MESH-001", std::move(msg), loc);
  }

  // L-MESH-002: nodes no element references. Such nodes are still punched
  // and inflate the analysis program's equation count.
  std::vector<bool> referenced(static_cast<size_t>(mesh.num_nodes()), false);
  for (const mesh::Element& e : mesh.elements()) {
    for (int n : e.n) {
      if (n >= 0 && n < mesh.num_nodes()) {
        referenced[static_cast<size_t>(n)] = true;
      }
    }
  }
  const long unreferenced = std::count(referenced.begin(), referenced.end(),
                                       false);
  if (unreferenced > 0) {
    sink.warning("L-MESH-002",
                 std::to_string(unreferenced) + " of " +
                     std::to_string(mesh.num_nodes()) +
                     " nodes belong to no element",
                 loc);
  }

  // L-MESH-003: clockwise elements. The analysis program integrates with
  // the assumed orientation; negative areas flip element stiffness signs.
  int inverted = 0;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    if (mesh.signed_area(e) < 0.0) ++inverted;
  }
  if (inverted > 0) {
    sink.error("L-MESH-003",
               std::to_string(inverted) + " of " +
                   std::to_string(mesh.num_elements()) +
                   " elements have clockwise node ordering (negative area)",
               loc);
  }

  // L-MESH-004: elements over the same node set (overlapping subdivisions
  // produce these even when L-SUB-002 could not see the overlap).
  std::set<std::array<int, 3>> seen;
  int duplicates = 0;
  for (const mesh::Element& e : mesh.elements()) {
    std::array<int, 3> key = e.n;
    std::sort(key.begin(), key.end());
    if (!seen.insert(key).second) ++duplicates;
  }
  if (duplicates > 0) {
    sink.error("L-MESH-004",
               std::to_string(duplicates) +
                   " duplicate elements (same node set referenced twice)",
               loc);
  }

  // L-MESH-005: renumbering dry run. Only advisory when the deck left
  // NONUMB = 0 — with renumbering already requested there is nothing to say.
  if (!c.options.renumber_nodes) {
    mesh::TriMesh copy = mesh;
    const idlz::RenumberReport r = idlz::renumber(
        copy, mesh::Topology(mesh), idlz::NumberingScheme::kBest);
    if (r.applied && r.bandwidth_before >= kMinBandwidth) {
      const double gain =
          100.0 * (r.bandwidth_before - r.bandwidth_after) /
          static_cast<double>(r.bandwidth_before);
      if (gain >= kBandwidthGainPct) {
        std::string msg =
            "renumbering would cut the coefficient-matrix bandwidth from " +
            std::to_string(r.bandwidth_before) + " to " +
            std::to_string(r.bandwidth_after) + " (";
        append_fixed(msg, gain, 0);
        msg += "% smaller); set NONUMB = 1";
        sink.warning("L-MESH-005", std::move(msg), loc);
      }
    }
  }
}

}  // namespace feio::lint
