#include "idlz/listing.h"

#include "util/text.h"

namespace feio::idlz {
namespace {

const char* boundary_code(mesh::BoundaryKind k) {
  switch (k) {
    case mesh::BoundaryKind::kInterior: return "0";
    case mesh::BoundaryKind::kBoundaryShared: return "1";
    case mesh::BoundaryKind::kBoundarySingle: return "2";
  }
  return "?";
}

}  // namespace

std::string print_listing(const IdlzResult& result,
                          const ListingOptions& options) {
  const mesh::TriMesh& m = result.mesh;
  std::string out;
  // 38 columns per node row and 25 per element row, plus the header.
  out.reserve(1024 + 38 * static_cast<size_t>(m.num_nodes()) +
              25 * static_cast<size_t>(m.num_elements()));
  out += "STRUCTURAL IDEALIZATION\n";
  out += result.title;
  out += "\n\n";
  out += summarize(result);
  out += '\n';

  if (options.node_table) {
    out += "NODAL POINT DATA\n";
    append_right(out, "NODE", 6);
    append_right(out, "X", 12);
    append_right(out, "Y", 12);
    append_right(out, "BNDRY", 7);
    out += '\n';
    for (int i = 0; i < m.num_nodes(); ++i) {
      const mesh::Node& n = m.node(i);
      append_int(out, i + 1, 6);
      append_fixed(out, n.pos.x, 5, 12);
      append_fixed(out, n.pos.y, 5, 12);
      append_right(out, boundary_code(n.boundary), 7);
      out += '\n';
    }
    out += '\n';
  }

  if (options.element_table) {
    out += "ELEMENT DATA\n";
    append_right(out, "ELEM", 6);
    append_right(out, "N1", 6);
    append_right(out, "N2", 6);
    append_right(out, "N3", 6);
    out += '\n';
    for (int e = 0; e < m.num_elements(); ++e) {
      const mesh::Element& el = m.element(e);
      append_int(out, e + 1, 6);
      for (const int node : el.n) append_int(out, node + 1, 6);
      out += '\n';
    }
    out += '\n';
  }

  if (options.subdivision_index) {
    out += "SUBDIVISION INDEX\n";
    for (size_t si = 0; si < result.subdivision_nodes.size(); ++si) {
      out += "  SUBDIVISION ";
      append_int(out, si + 1);
      out += ": ";
      append_int(out, result.subdivision_nodes[si].size());
      out += " NODES, ";
      append_int(out, result.subdivision_elements[si].size());
      out += " ELEMENTS\n";
    }
  }
  return out;
}

}  // namespace feio::idlz
