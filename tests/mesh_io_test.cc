#include <algorithm>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "idlz/idlz.h"
#include "mesh/io.h"
#include "mesh/validate.h"
#include "mesh_helpers.h"
#include "scenarios/scenarios.h"
#include "util/error.h"

namespace feio::mesh {
namespace {

TriMesh square() {
  TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({1, 1});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  m.add_element(0, 2, 3);
  m.classify_boundary(mesh::Topology(m));
  return m;
}

TEST(MeshIoTest, ObjHasVerticesAndFaces) {
  const std::string obj = to_obj(square());
  int v_lines = 0;
  int f_lines = 0;
  std::istringstream in(obj);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("v ", 0) == 0) ++v_lines;
    if (line.rfind("f ", 0) == 0) ++f_lines;
  }
  EXPECT_EQ(v_lines, 4);
  EXPECT_EQ(f_lines, 2);
  EXPECT_NE(obj.find("v 0.000000 0.000000 0\n"), std::string::npos);
  EXPECT_NE(obj.find("f 1 2 3\n"), std::string::npos);  // 1-based
}

TEST(MeshIoTest, OffRoundTrip) {
  const TriMesh m = square();
  const TriMesh rt = read_off_string(to_off(m));
  ASSERT_EQ(rt.num_nodes(), m.num_nodes());
  ASSERT_EQ(rt.num_elements(), m.num_elements());
  for (int i = 0; i < m.num_nodes(); ++i) {
    EXPECT_NEAR(rt.pos(i).x, m.pos(i).x, 1e-6);
    EXPECT_NEAR(rt.pos(i).y, m.pos(i).y, 1e-6);
    EXPECT_EQ(rt.node(i).boundary, m.node(i).boundary);
  }
  for (int e = 0; e < m.num_elements(); ++e) {
    EXPECT_EQ(rt.element(e).n, m.element(e).n);
  }
}

TEST(MeshIoTest, OffRoundTripProductionMesh) {
  const TriMesh m = idlz::run(scenarios::fig09_dsrv_hatch()).mesh;
  const TriMesh rt = read_off_string(to_off(m));
  EXPECT_EQ(rt.num_nodes(), m.num_nodes());
  EXPECT_EQ(rt.num_elements(), m.num_elements());
  EXPECT_TRUE(mesh_helpers::validate(rt).ok());
}

TEST(MeshIoTest, OffSkipsComments) {
  const std::string text =
      "OFF\n# a comment\n3 1 0\n0 0 0\n\n1 0 0\n0 1 0\n3 0 1 2\n";
  const TriMesh m = read_off_string(text);
  EXPECT_EQ(m.num_nodes(), 3);
  EXPECT_EQ(m.num_elements(), 1);
}

TEST(MeshIoTest, OffErrors) {
  EXPECT_THROW(read_off_string(""), Error);
  EXPECT_THROW(read_off_string("PLY\n3 1 0\n"), Error);
  EXPECT_THROW(read_off_string("OFF\n3 1 0\n0 0 0\n1 0 0\n"), Error);
  // Quad face rejected.
  EXPECT_THROW(read_off_string("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
                               "4 0 1 2 3\n"),
               Error);
  // Face referencing a missing vertex.
  EXPECT_THROW(read_off_string("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n"),
               Error);
}

TEST(MeshIoTest, WritesFiles) {
  const std::string dir = ::testing::TempDir();
  write_obj(square(), dir + "/feio_io_test.obj");
  write_off(square(), dir + "/feio_io_test.off");
  std::ifstream obj(dir + "/feio_io_test.obj");
  std::ifstream off(dir + "/feio_io_test.off");
  EXPECT_TRUE(obj.good());
  EXPECT_TRUE(off.good());
}

}  // namespace
}  // namespace feio::mesh
