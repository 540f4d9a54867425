#include <fstream>

#include <gtest/gtest.h>

#include "plot/ascii.h"
#include "plot/deformed.h"
#include "plot/mesh_plot.h"
#include "plot/plot_file.h"
#include "plot/svg.h"
#include "util/error.h"

namespace feio::plot {
namespace {

using geom::Vec2;

TEST(PlotFileTest, CollectsPrimitives) {
  PlotFile p("TITLE");
  p.line({0, 0}, {1, 0});
  p.polyline({{0, 0}, {1, 1}, {2, 0}});
  p.text({0.5, 0.5}, "X");
  EXPECT_EQ(p.lines().size(), 3u);
  EXPECT_EQ(p.labels().size(), 1u);
  EXPECT_EQ(p.title(), "TITLE");
  EXPECT_FALSE(p.empty());
}

TEST(PlotFileTest, Bounds) {
  PlotFile p;
  EXPECT_TRUE(p.empty());
  p.line({-1, 2}, {3, 5});
  const geom::BBox b = p.bounds();
  EXPECT_EQ(b.lo, (Vec2{-1, 2}));
  EXPECT_EQ(b.hi, (Vec2{3, 5}));
}

TEST(SvgTest, ContainsPrimitivesAndTitle) {
  PlotFile p("MY PLOT");
  p.set_subtitle("CONTOUR INTERVAL IS 10");
  p.line({0, 0}, {1, 1}, Pen::kContour);
  p.text({0.5, 0.5}, "+10.");
  const std::string svg = render_svg(p);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("MY PLOT"), std::string::npos);
  EXPECT_NE(svg.find("CONTOUR INTERVAL IS 10"), std::string::npos);
  EXPECT_NE(svg.find("<line"), std::string::npos);
  EXPECT_NE(svg.find("+10."), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(SvgTest, EscapesXmlSpecials) {
  PlotFile p("A < B & C");
  p.line({0, 0}, {1, 1});
  const std::string svg = render_svg(p);
  EXPECT_NE(svg.find("A &lt; B &amp; C"), std::string::npos);
  EXPECT_EQ(svg.find("A < B"), std::string::npos);
}

TEST(SvgTest, EmptyPlotStillValid) {
  PlotFile p;
  const std::string svg = render_svg(p);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
}

TEST(SvgTest, WritesFile) {
  PlotFile p("F");
  p.line({0, 0}, {1, 1});
  const std::string path = ::testing::TempDir() + "/feio_plot_test.svg";
  write_svg(p, path);
  std::ifstream f(path);
  EXPECT_TRUE(f.good());
}

TEST(AsciiTest, StampsLinesWithPenChars) {
  PlotFile p;
  p.line({0, 0}, {1, 0}, Pen::kBoundary);
  p.line({0, 1}, {1, 1}, Pen::kContour);
  const std::string art = render_ascii(p, {20, 5});
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('*'), std::string::npos);
}

TEST(AsciiTest, LabelWinsOverInk) {
  PlotFile p;
  p.line({0, 0}, {1, 0}, Pen::kMesh);
  p.text({0.5, 0}, "Z");
  const std::string art = render_ascii(p, {21, 3});
  EXPECT_NE(art.find('Z'), std::string::npos);
}

TEST(AsciiTest, GridDimensions) {
  PlotFile p;
  p.line({0, 0}, {1, 1});
  const std::string art = render_ascii(p, {30, 10});
  int rows = 1;
  for (char c : art) {
    if (c == '\n') ++rows;
  }
  EXPECT_EQ(rows, 10);
}

TEST(MeshPlotTest, DrawsEveryEdgeOnce) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({1, 1});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  m.add_element(0, 2, 3);
  PlotFile p;
  draw_mesh(m, mesh::Topology(m), p);
  EXPECT_EQ(p.lines().size(), 5u);  // 4 boundary + 1 diagonal
  int heavy = 0;
  for (const LineSeg& l : p.lines()) {
    if (l.pen == Pen::kBoundary) ++heavy;
  }
  EXPECT_EQ(heavy, 4);
}

TEST(MeshPlotTest, NumbersNodesOneBased) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  const PlotFile p =
      plot_mesh(m, mesh::Topology(m), "T",
                MeshPlotOptions{.number_nodes = true});
  ASSERT_EQ(p.labels().size(), 3u);
  EXPECT_EQ(p.labels()[0].text, "1");
  EXPECT_EQ(p.labels()[2].text, "3");
}

TEST(MeshPlotTest, NumbersElements) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  const PlotFile p = plot_mesh(
      m, mesh::Topology(m), "T",
      MeshPlotOptions{.number_nodes = false, .number_elements = true});
  ASSERT_EQ(p.labels().size(), 1u);
  EXPECT_EQ(p.labels()[0].text, "1");
  // Element label sits at the centroid.
  EXPECT_TRUE(geom::almost_equal(p.labels()[0].at, {1.0 / 3, 1.0 / 3}, 1e-12));
}

TEST(DeformedPlotTest, AutoScaleTargetsFivePercent) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({10, 0});
  m.add_node({0, 10});
  m.add_element(0, 1, 2);
  std::vector<geom::Vec2> disp{{0, 0}, {0.01, 0}, {0, 0}};
  PlotFile p;
  const double scale = draw_deformed(m, disp, p);
  // 5% of the diagonal (~14.14) over max displacement 0.01.
  EXPECT_NEAR(scale, 0.05 * std::hypot(10.0, 10.0) / 0.01, 1e-9);
  EXPECT_FALSE(p.empty());
}

TEST(DeformedPlotTest, ExplicitScaleMovesNodes) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  std::vector<geom::Vec2> disp{{0, 0}, {0.1, 0}, {0, 0}};
  DeformedPlotOptions opts;
  opts.scale = 2.0;
  opts.show_undeformed = false;
  PlotFile p;
  draw_deformed(m, disp, p, opts);
  // The deformed edge from node 0 to node 1 ends at x = 1 + 0.2.
  geom::BBox box = p.bounds();
  EXPECT_NEAR(box.hi.x, 1.2, 1e-12);
}

TEST(DeformedPlotTest, UndeformedOutlineUsesAidPen) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  std::vector<geom::Vec2> disp(3, geom::Vec2{0.1, 0.0});
  PlotFile p;
  draw_deformed(m, disp, p);
  int aid = 0;
  for (const LineSeg& l : p.lines()) {
    if (l.pen == Pen::kGridAid) ++aid;
  }
  EXPECT_EQ(aid, 3);  // the triangle's undeformed outline
}

TEST(DeformedPlotTest, TitleCarriesScale) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  std::vector<geom::Vec2> disp(3, geom::Vec2{});
  const PlotFile p = plot_deformed(m, disp, "CASE");
  EXPECT_NE(p.title().find("DEFLECTIONS x"), std::string::npos);
}

TEST(DeformedPlotTest, SizeMismatchThrows) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  std::vector<geom::Vec2> disp(2);
  PlotFile p;
  EXPECT_THROW(draw_deformed(m, disp, p), Error);
}

}  // namespace
}  // namespace feio::plot
