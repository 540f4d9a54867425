#include "mesh/io.h"

#include <fstream>
#include <sstream>

#include "mesh/topology.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/text.h"

namespace feio::mesh {
namespace {

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  FEIO_REQUIRE(f.good(), "cannot open '" + path + "' for writing");
  f << content;
  FEIO_REQUIRE(f.good(), "failed writing '" + path + "'");
}

// Skips blank lines and '#' comments; returns the next meaningful line.
bool next_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const std::string_view t = trim(line);
    if (!t.empty() && t[0] != '#') {
      line = std::string(t);
      return true;
    }
  }
  return false;
}

// "x y 0" with 6 decimals, the coordinate line both formats share.
void append_vertex(std::string& out, const Node& n) {
  append_fixed(out, n.pos.x, 6);
  out += ' ';
  append_fixed(out, n.pos.y, 6);
  out += " 0\n";
}

// The element's three node numbers plus `base`, each after a space.
void append_face(std::string& out, const Element& el, int base) {
  for (const int node : el.n) {
    out += ' ';
    append_int(out, node + base);
  }
  out += '\n';
}

}  // namespace

std::string to_obj(const TriMesh& mesh) {
  std::string out = "# feio idealization: ";
  append_int(out, mesh.num_nodes());
  out += " nodes, ";
  append_int(out, mesh.num_elements());
  out += " elements\n";
  for (const Node& n : mesh.nodes()) {
    out += "v ";
    append_vertex(out, n);
  }
  for (const Element& el : mesh.elements()) {
    out += 'f';
    append_face(out, el, 1);
  }
  return out;
}

void write_obj(const TriMesh& mesh, const std::string& path) {
  write_file(path, to_obj(mesh));
}

std::string to_off(const TriMesh& mesh) {
  std::string out = "OFF\n";
  append_int(out, mesh.num_nodes());
  out += ' ';
  append_int(out, mesh.num_elements());
  out += " 0\n";
  for (const Node& n : mesh.nodes()) append_vertex(out, n);
  for (const Element& el : mesh.elements()) {
    out += '3';
    append_face(out, el, 0);
  }
  return out;
}

void write_off(const TriMesh& mesh, const std::string& path) {
  write_file(path, to_off(mesh));
}

TriMesh read_off(std::istream& in) {
  std::string line;
  FEIO_REQUIRE(next_line(in, line), "empty OFF stream");
  FEIO_REQUIRE(starts_with(line, "OFF"), "missing OFF header");

  FEIO_REQUIRE(next_line(in, line), "OFF counts line missing");
  std::istringstream counts(line);
  long nv = 0;
  long nf = 0;
  long ne = 0;
  counts >> nv >> nf >> ne;
  FEIO_REQUIRE(counts && nv >= 0 && nf >= 0, "bad OFF counts line");

  TriMesh mesh;
  for (long i = 0; i < nv; ++i) {
    FEIO_REQUIRE(next_line(in, line), "OFF vertex list truncated");
    std::istringstream v(line);
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;
    v >> x >> y >> z;
    FEIO_REQUIRE(static_cast<bool>(v), "bad OFF vertex line: " + line);
    mesh.add_node({x, y});
  }
  for (long f = 0; f < nf; ++f) {
    FEIO_REQUIRE(next_line(in, line), "OFF face list truncated");
    std::istringstream face(line);
    int arity = 0;
    face >> arity;
    FEIO_REQUIRE(arity == 3, "only triangular OFF faces are supported");
    int a = 0;
    int b = 0;
    int c = 0;
    face >> a >> b >> c;
    FEIO_REQUIRE(static_cast<bool>(face), "bad OFF face line: " + line);
    FEIO_REQUIRE(a >= 0 && a < mesh.num_nodes() && b >= 0 &&
                     b < mesh.num_nodes() && c >= 0 && c < mesh.num_nodes(),
                 "OFF face references a missing vertex");
    mesh.add_element(a, b, c);
  }
  mesh.classify_boundary(Topology(mesh));
  return mesh;
}

TriMesh read_off_string(const std::string& text) {
  std::istringstream in(text);
  return read_off(in);
}

}  // namespace feio::mesh
