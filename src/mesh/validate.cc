#include "mesh/validate.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>

#include "mesh/topology.h"

namespace feio::mesh {
namespace {

std::string elem_str(int e) { return "element " + std::to_string(e); }

void error(ValidationReport& rep, const char* code, std::string message) {
  rep.diags.push_back({Severity::kError, code, std::move(message), {}});
}

void warning(ValidationReport& rep, const char* code, std::string message) {
  rep.diags.push_back({Severity::kWarning, code, std::move(message), {}});
}

}  // namespace

bool ValidationReport::ok() const {
  for (const Diag& d : diags) {
    if (d.severity == Severity::kError) return false;
  }
  return true;
}

std::vector<std::string> ValidationReport::errors() const {
  std::vector<std::string> out;
  for (const Diag& d : diags) {
    if (d.severity == Severity::kError) out.push_back(d.message);
  }
  return out;
}

std::vector<std::string> ValidationReport::warnings() const {
  std::vector<std::string> out;
  for (const Diag& d : diags) {
    if (d.severity == Severity::kWarning) out.push_back(d.message);
  }
  return out;
}

std::vector<std::string> ValidationReport::to_strings() const {
  std::vector<std::string> out;
  out.reserve(diags.size());
  for (const Diag& d : diags) out.push_back(d.to_string());
  return out;
}

void ValidationReport::merge_into(DiagSink& sink) const {
  for (const Diag& d : diags) sink.add(d);
}

ValidationReport validate(const TriMesh& mesh, std::optional<Topology>& topo) {
  ValidationReport rep;

  // Duplicate elements: sort the node triples; an element whose triple
  // equals the one before it in sorted order repeats an earlier element.
  // A triple with an out-of-range or repeated index never equals a valid
  // one, and such elements stop before the duplicate check.
  std::vector<char> duplicate(static_cast<size_t>(mesh.num_elements()), 0);
  {
    std::vector<std::pair<std::array<int, 3>, int>> keys;
    keys.reserve(static_cast<size_t>(mesh.num_elements()));
    for (int e = 0; e < mesh.num_elements(); ++e) {
      std::array<int, 3> key = mesh.element(e).n;
      std::sort(key.begin(), key.end());
      keys.emplace_back(key, e);
    }
    std::sort(keys.begin(), keys.end());
    for (size_t i = 1; i < keys.size(); ++i) {
      if (keys[i].first == keys[i - 1].first) {
        duplicate[static_cast<size_t>(keys[i].second)] = 1;
      }
    }
  }

  for (int e = 0; e < mesh.num_elements(); ++e) {
    const Element& el = mesh.element(e);
    bool in_range = true;
    for (int n : el.n) {
      if (n < 0 || n >= mesh.num_nodes()) {
        error(rep, "E-MESH-001", elem_str(e) + ": node index out of range");
        in_range = false;
      }
    }
    if (!in_range) continue;
    if (el.n[0] == el.n[1] || el.n[1] == el.n[2] || el.n[0] == el.n[2]) {
      error(rep, "E-MESH-002", elem_str(e) + ": repeated node index");
      continue;
    }
    if (duplicate[static_cast<size_t>(e)]) {
      error(rep, "E-MESH-003",
            elem_str(e) + ": duplicate of an earlier element");
    }
    const double area = mesh.signed_area(e);
    if (area == 0.0) {
      error(rep, "E-MESH-004", elem_str(e) + ": zero area");
    } else if (area < 0.0) {
      warning(rep, "W-MESH-005", elem_str(e) + ": clockwise orientation");
    }
  }

  if (!rep.ok()) return rep;  // topology needs valid indices

  if (!topo) topo.emplace(mesh);

  // Non-manifold edges.
  for (int id = 0; id < topo->num_edges(); ++id) {
    const size_t uses = topo->edge_elements(id).size();
    if (uses > 2) {
      const Edge edge = topo->edges()[static_cast<size_t>(id)];
      error(rep, "E-MESH-006",
            "edge (" + std::to_string(edge.a) + "," + std::to_string(edge.b) +
                ") shared by " + std::to_string(uses) + " elements");
    }
  }

  // Boundary flags vs. topology.
  for (int i = 0; i < mesh.num_nodes(); ++i) {
    if (mesh.node(i).boundary != topo->boundary_kind(i)) {
      warning(rep, "W-MESH-007",
              "node " + std::to_string(i) +
                  ": boundary flag inconsistent with topology");
    }
  }

  // Isolated nodes.
  for (int i = 0; i < mesh.num_nodes(); ++i) {
    if (topo->elements_of(i).empty()) {
      warning(rep, "W-MESH-008",
              "node " + std::to_string(i) + " belongs to no element");
    }
  }

  // Connectivity (warning only).
  if (mesh.num_nodes() > 0) {
    std::vector<bool> visited(static_cast<size_t>(mesh.num_nodes()), false);
    std::vector<int> stack;
    int start = 0;
    while (start < mesh.num_nodes() && topo->elements_of(start).empty()) {
      ++start;
    }
    if (start < mesh.num_nodes()) {
      stack.push_back(start);
      visited[static_cast<size_t>(start)] = true;
      while (!stack.empty()) {
        const int n = stack.back();
        stack.pop_back();
        for (int nb : topo->neighbors(n)) {
          if (!visited[static_cast<size_t>(nb)]) {
            visited[static_cast<size_t>(nb)] = true;
            stack.push_back(nb);
          }
        }
      }
      for (int i = 0; i < mesh.num_nodes(); ++i) {
        if (!visited[static_cast<size_t>(i)] && !topo->elements_of(i).empty()) {
          warning(rep, "W-MESH-009",
                  "mesh has more than one connected component");
          break;
        }
      }
    }
  }

  return rep;
}

}  // namespace feio::mesh
