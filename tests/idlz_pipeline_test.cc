#include <cstdint>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "cards/card_io.h"
#include "idlz/deck.h"
#include "idlz/idlz.h"
#include "idlz/punch.h"
#include "mesh/topology.h"
#include "mesh/validate.h"
#include "mesh_helpers.h"
#include "ospl/deck.h"
#include "scenarios/pipeline_bench.h"
#include "scenarios/scenarios.h"
#include "util/error.h"
#include "util/metrics.h"

namespace feio::idlz {
namespace {

TEST(PipelineTest, RectangleEndToEnd) {
  const IdlzResult r = run(scenarios::fig02_rectangle());
  EXPECT_EQ(r.mesh.num_nodes(), 54);
  EXPECT_EQ(r.mesh.num_elements(), 80);
  EXPECT_TRUE(mesh_helpers::validate(r.mesh).ok());
  // The initial (integer) mesh has the same topology.
  EXPECT_EQ(r.initial.num_nodes(), r.mesh.num_nodes());
  EXPECT_EQ(r.initial.num_elements(), r.mesh.num_elements());
}

TEST(PipelineTest, PlotsProducedOnRequest) {
  IdlzCase c = scenarios::fig11_circular_ring();
  c.options.make_plots = true;
  const IdlzResult r = run(c);
  // Initial + final + one per subdivision (Figure 11's three plot kinds).
  EXPECT_EQ(r.plots.size(), 2u + c.subdivisions.size());
  for (const auto& p : r.plots) EXPECT_FALSE(p.empty());
  // Per-subdivision plots carry node-number labels.
  EXPECT_FALSE(r.plots[2].labels().empty());
}

TEST(PipelineTest, NoPlotsByDefault) {
  const IdlzResult r = run(scenarios::fig02_rectangle());
  EXPECT_TRUE(r.plots.empty());
  EXPECT_TRUE(r.nodal_cards.empty());
}

TEST(PipelineTest, PunchedNodalCardsParseBack) {
  IdlzCase c = scenarios::fig02_rectangle();
  c.options.punch_output = true;
  const IdlzResult r = run(c);
  ASSERT_FALSE(r.nodal_cards.empty());

  // Parse the punched cards back with the same FORMAT.
  std::istringstream in(r.nodal_cards);
  cards::CardReader reader(in);
  const cards::Format fmt = cards::Format::parse(c.options.nodal_format);
  for (int i = 0; i < r.mesh.num_nodes(); ++i) {
    const auto f = reader.read(fmt);
    EXPECT_NEAR(cards::as_real(f[0]), r.mesh.pos(i).x, 1e-4);
    EXPECT_NEAR(cards::as_real(f[1]), r.mesh.pos(i).y, 1e-4);
    EXPECT_EQ(cards::as_int(f[2]),
              static_cast<long>(r.mesh.node(i).boundary));
    EXPECT_EQ(cards::as_int(f[3]), i + 1);
  }
  EXPECT_FALSE(reader.next_card().has_value());
}

TEST(PipelineTest, PunchedElementCardsParseBack) {
  IdlzCase c = scenarios::fig02_rectangle();
  c.options.punch_output = true;
  const IdlzResult r = run(c);
  std::istringstream in(r.element_cards);
  cards::CardReader reader(in);
  const cards::Format fmt = cards::Format::parse(c.options.element_format);
  for (int e = 0; e < r.mesh.num_elements(); ++e) {
    const auto f = reader.read(fmt);
    EXPECT_EQ(cards::as_int(f[0]), r.mesh.element(e).n[0] + 1);
    EXPECT_EQ(cards::as_int(f[1]), r.mesh.element(e).n[1] + 1);
    EXPECT_EQ(cards::as_int(f[2]), r.mesh.element(e).n[2] + 1);
    EXPECT_EQ(cards::as_int(f[3]), e + 1);
  }
}

TEST(PipelineTest, PunchHonorsCustomFormat) {
  // A user FORMAT with E descriptors and different column layout.
  mesh::TriMesh m;
  m.add_node({1.5, -2.25}, mesh::BoundaryKind::kBoundarySingle);
  m.add_node({3.0, 0.0}, mesh::BoundaryKind::kBoundarySingle);
  m.add_node({0.0, 4.0}, mesh::BoundaryKind::kBoundarySingle);
  m.add_element(0, 1, 2);
  const std::string cards = punch_nodal_cards(m, "(2E14.6,2X,I2,I6)");
  std::istringstream in(cards);
  cards::CardReader reader(in);
  const auto f = reader.read(cards::Format::parse("(2E14.6,2X,I2,I6)"));
  EXPECT_NEAR(cards::as_real(f[0]), 1.5, 1e-6);
  EXPECT_NEAR(cards::as_real(f[1]), -2.25, 1e-6);
  EXPECT_EQ(cards::as_int(f[2]), 2);  // kBoundarySingle
  EXPECT_EQ(cards::as_int(f[3]), 1);
}

TEST(PipelineTest, PunchRejectsWrongFieldCount) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_element(0, 1, 2);
  EXPECT_THROW(punch_nodal_cards(m, "(2F9.5)"), Error);
  EXPECT_THROW(punch_element_cards(m, "(3I5)"), Error);
}

TEST(PipelineTest, DataVolumeClaim) {
  // Claim C1: input is a small fraction of the produced data. The paper
  // says "generally less than five percent"; the small demonstration
  // figures run a bit higher, the production-sized ones (Figure 9) under.
  const IdlzResult r = run(scenarios::fig09_dsrv_hatch());
  EXPECT_LT(r.volume.input_fraction(), 0.05);
  // Claim C2 on the 510-element hatch. The paper: about 2000 input and
  // 2000 output values for 500 elements, counting the FEM program's own
  // input; we count only the values typed into IDLZ and the card values
  // it punches (4 per nodal and 4 per element card).
  EXPECT_EQ(r.mesh.num_elements(), 510);
  EXPECT_EQ(r.volume.input_values, 157);    // paper: ~2000
  EXPECT_EQ(r.volume.output_values, 3288);  // paper: ~2000
}

TEST(PipelineTest, SummaryMentionsKeyNumbers) {
  const IdlzResult r = run(scenarios::fig09_dsrv_hatch());
  const std::string s = summarize(r);
  EXPECT_NE(s.find("nodes"), std::string::npos);
  EXPECT_NE(s.find(std::to_string(r.mesh.num_nodes())), std::string::npos);
  EXPECT_NE(s.find("bandwidth"), std::string::npos);
}

TEST(PipelineTest, Figure9Claims) {
  // Claim C3: boundary nodes from a few given coordinates and eleven
  // circular arcs. Compound-arc runs share end points, so we locate fewer
  // coordinates than the paper.
  const IdlzResult r = run(scenarios::fig09_dsrv_hatch());
  EXPECT_EQ(r.volume.boundary_nodes, 112);      // paper: 100
  EXPECT_EQ(r.volume.located_coordinates, 14);  // paper: 24
  EXPECT_EQ(r.volume.arcs_used, 11);            // paper: 11
}

// ---- Deck I/O ------------------------------------------------------------

TEST(DeckTest, RoundTripRectangle) {
  IdlzCase c = scenarios::fig02_rectangle();
  c.options.punch_output = true;
  const std::string deck = write_deck({c});
  const std::vector<IdlzCase> cases = read_deck_string(deck);
  ASSERT_EQ(cases.size(), 1u);
  const IdlzCase& rt = cases[0];
  EXPECT_EQ(rt.title, c.title);
  EXPECT_TRUE(rt.options.punch_output);
  ASSERT_EQ(rt.subdivisions.size(), c.subdivisions.size());
  EXPECT_EQ(rt.subdivisions[0].k2, c.subdivisions[0].k2);
  ASSERT_EQ(rt.shaping.size(), c.shaping.size());
  ASSERT_EQ(rt.shaping[0].lines.size(), c.shaping[0].lines.size());
  EXPECT_NEAR(rt.shaping[0].lines[1].radius, 8.0, 1e-4);

  // Both decks idealize to the same mesh.
  const IdlzResult a = run(c);
  const IdlzResult b = run(rt);
  ASSERT_EQ(a.mesh.num_nodes(), b.mesh.num_nodes());
  for (int i = 0; i < a.mesh.num_nodes(); ++i) {
    EXPECT_NEAR(a.mesh.pos(i).x, b.mesh.pos(i).x, 1e-3);
    EXPECT_NEAR(a.mesh.pos(i).y, b.mesh.pos(i).y, 1e-3);
  }
}

TEST(DeckTest, RoundTripMultiSubdivision) {
  const IdlzCase c = scenarios::fig01_glass_joint();
  const std::vector<IdlzCase> cases = read_deck_string(write_deck({c}));
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].subdivisions.size(), 5u);
  EXPECT_EQ(cases[0].subdivisions[1].ntaprw, 2);
  EXPECT_EQ(cases[0].subdivisions[3].ntaprw, -2);
  EXPECT_NO_THROW(run(cases[0]));
}

TEST(DeckTest, MultipleDataSets) {
  const std::string deck =
      write_deck({scenarios::fig02_rectangle(), scenarios::fig05_trapezoid_col3()});
  const auto cases = read_deck_string(deck);
  ASSERT_EQ(cases.size(), 2u);
  EXPECT_NE(cases[0].title, cases[1].title);
}

TEST(DeckTest, HandWrittenDeck) {
  // A minimal deck typed the way a 1970 analyst would punch it.
  const std::string deck =
      "    1\n"
      "SIMPLE BLOCK\n"
      "    0    0    0    1\n"
      "    1    1    1    3    3\n"
      "    1    2\n"
      "    1    1    3    1  0.0     0.0     2.0     0.0     0.0\n"
      "    1    3    3    3  0.0     2.0     2.0     2.0     0.0\n"
      "\n"
      "\n";
  const auto cases = read_deck_string(deck);
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].title, "SIMPLE BLOCK");
  const IdlzResult r = run(cases[0]);
  EXPECT_EQ(r.mesh.num_nodes(), 9);
  EXPECT_EQ(r.mesh.num_elements(), 8);
  // Blank type-7 cards fall back to the Appendix B default FORMATs.
  EXPECT_EQ(cases[0].options.nodal_format, std::string(kDefaultNodalFormat));
}

TEST(DeckTest, TruncatedDeckThrowsWithCardContext) {
  const std::string deck =
      "    1\n"
      "TITLE\n"
      "    0    0    0    2\n"
      "    1    1    1    3    3\n";  // second subdivision card missing
  EXPECT_THROW(read_deck_string(deck), Error);
}

TEST(DeckTest, ZeroLinesRejected) {
  const std::string deck =
      "    1\n"
      "TITLE\n"
      "    0    0    0    1\n"
      "    1    1    1    3    3\n"
      "    1    0\n"
      "\n\n";
  EXPECT_THROW(read_deck_string(deck), Error);
}

// Punched nodal cards are exactly what an OSPL deck consumes after the
// analysis fills in the value column — verify the production chain:
// IDLZ punch -> (analysis writes S) -> OSPL deck read.
TEST(ChainTest, PunchedCardsFeedOspl) {
  IdlzCase c = scenarios::fig02_rectangle();
  c.options.punch_output = true;
  const IdlzResult r = run(c);

  // Build the OSPL deck: type 1, two titles, the nodal cards with a value
  // spliced into columns 41-50 (F10.3 of the OSPL type-3 FORMAT), then
  // element cards re-encoded as (3I5).
  std::ostringstream deck;
  deck << cards::encode({static_cast<long>(r.mesh.num_nodes()),
                         static_cast<long>(r.mesh.num_elements()), 0.0, 0.0,
                         0.0, 0.0, 0.0},
                        cards::Format::parse("(2I5,5F10.4)"))
       << "\nTITLE ONE\nTITLE TWO\n";
  std::istringstream nodal(r.nodal_cards);
  std::string card;
  int i = 0;
  while (std::getline(nodal, card)) {
    // IDLZ's default punch puts boundary in cols 70-72; OSPL wants value in
    // 41-50 (F10.3) and the flag in col 41+10=51 (I1).
    const double value = r.mesh.pos(i).x + r.mesh.pos(i).y;
    std::string out = card.substr(0, 18) + std::string(22, ' ');
    char buf[16];
    std::snprintf(buf, sizeof buf, "%10.3f", value);
    out += buf;
    out += std::to_string(static_cast<int>(r.mesh.node(i).boundary));
    deck << out << "\n";
    ++i;
  }
  for (int e = 0; e < r.mesh.num_elements(); ++e) {
    deck << cards::encode({static_cast<long>(r.mesh.element(e).n[0] + 1),
                           static_cast<long>(r.mesh.element(e).n[1] + 1),
                           static_cast<long>(r.mesh.element(e).n[2] + 1)},
                          cards::Format::parse("(3I5)"))
         << "\n";
  }

  const ospl::OsplCase oc = ospl::read_deck_string(deck.str());
  EXPECT_EQ(oc.mesh.num_nodes(), r.mesh.num_nodes());
  EXPECT_EQ(oc.mesh.num_elements(), r.mesh.num_elements());
  EXPECT_NEAR(oc.values[4], r.mesh.pos(4).x + r.mesh.pos(4).y, 1e-3);
}

// Every idealization in the gallery runs clean and produces a valid mesh
// within the paper's Table 2 limits.
class GallerySweep : public ::testing::TestWithParam<int> {};

TEST_P(GallerySweep, RunsAndValidates) {
  const auto cases = scenarios::all_idealizations();
  const auto& nc = cases[static_cast<size_t>(GetParam())];
  const IdlzResult r = run(nc.c);
  EXPECT_TRUE(mesh_helpers::validate(r.mesh).ok()) << nc.id;
  EXPECT_LE(r.mesh.num_nodes(), 500) << nc.id;
  EXPECT_LE(r.mesh.num_elements(), 850) << nc.id;
  EXPECT_GT(r.volume.boundary_nodes, 0) << nc.id;
  // Deck round-trip reproduces the same node/element counts.
  const auto rt = read_deck_string(write_deck({nc.c}));
  const IdlzResult r2 = run(rt[0]);
  EXPECT_EQ(r2.mesh.num_nodes(), r.mesh.num_nodes()) << nc.id;
  EXPECT_EQ(r2.mesh.num_elements(), r.mesh.num_elements()) << nc.id;
}

INSTANTIATE_TEST_SUITE_P(AllFigures, GallerySweep, ::testing::Range(0, 22));

// Two wide, flat rows of cells whose shared row is shifted: reform flips
// edges on the subdivisions' common side, so an element of one subdivision
// ends up with a node of the other. Each subdivision plot still draws every
// edge of its own elements once, and numbers only its own nodes.
TEST(PipelineTest, SubdivisionPlotsAfterFlipsAcrossTheirCommonSide) {
  IdlzCase c;
  c.title = "CROSS";
  c.options.make_plots = true;
  for (int id = 1; id <= 2; ++id) {
    Subdivision sub;
    sub.id = id;
    sub.k1 = 1;
    sub.l1 = id;
    sub.k2 = 3;
    sub.l2 = id + 1;
    c.subdivisions.push_back(sub);
  }
  const auto row = [](int l, double x, double y) {
    return ShapeLine{1, l, 3, l, {x, y}, {x + 20.0, y}};
  };
  c.shaping = {{1, {row(1, 0, 0), row(2, 5, 1)}}, {2, {row(3, 0, 2)}}};
  const IdlzResult r = run(c);
  ASSERT_GT(r.reform.flips, 0);
  ASSERT_EQ(r.plots.size(), 4u);
  const mesh::Topology topo(r.mesh);
  for (size_t si = 0; si < 2; ++si) {
    std::set<int> edges;
    std::set<int> nodes(r.subdivision_nodes[si].begin(),
                        r.subdivision_nodes[si].end());
    bool foreign = false;
    for (int e : r.subdivision_elements[si]) {
      for (int id : topo.element_edges(e)) edges.insert(id);
      for (int n : r.mesh.element(e).n) foreign |= nodes.count(n) == 0;
    }
    EXPECT_TRUE(foreign) << si;
    EXPECT_EQ(r.plots[2 + si].lines().size(), edges.size()) << si;
    EXPECT_EQ(r.plots[2 + si].labels().size(), nodes.size()) << si;
  }
}

// ---- Topology builds ----------------------------------------------------
//
// Each mesh state's topology is built once and handed to every stage that
// reads it (docs/ALGORITHMS.md, "One topology per mesh state"); the
// mesh.topology_builds counter pins how many builds a run makes.

std::int64_t topology_builds(const util::MetricsRegistry& metrics) {
  const util::MetricsSnapshot snap = metrics.snapshot();
  const auto it = snap.counters.find("mesh.topology_builds");
  return it == snap.counters.end() ? 0 : it->second;
}

// perfbench's strip_large idealization: assembly builds one, reform takes
// it through its single pass, and RCM renumbering builds the final one.
TEST(TopologyBuildsTest, StripWithRcmBuildsTwice) {
  util::MetricsRegistry metrics;
  RunOptions ro;
  ro.metrics = &metrics;
  ro.ordering = OrderingChoice::kRcm;
  const IdlzResult r = run(scenarios::strip_case(60, 150, 10), ro);
  ASSERT_EQ(r.reform.passes, 1);
  ASSERT_TRUE(r.renumbering.applied);
  EXPECT_EQ(topology_builds(metrics), 2);
}

// With plots, renumbering and punch on, as perfbench's gallery op runs
// them: one build in assembly, one per reform pass after the first, one
// after an applied renumbering, and none for the plots or for a checked
// run's validation.
TEST(TopologyBuildsTest, EveryGalleryFigureBuildsOncePerMeshState) {
  for (scenarios::NamedCase& nc : scenarios::all_idealizations()) {
    nc.c.options.make_plots = true;
    nc.c.options.renumber_nodes = true;
    nc.c.options.punch_output = true;
    util::MetricsRegistry metrics;
    RunOptions ro;
    ro.metrics = &metrics;
    const IdlzResult r = run(nc.c, ro);
    ASSERT_TRUE(r.reform.converged) << nc.id;
    const std::int64_t builds = topology_builds(metrics);
    EXPECT_EQ(builds,
              1 + (r.reform.passes - 1) + (r.renumbering.applied ? 1 : 0))
        << nc.id;

    util::MetricsRegistry checked_metrics;
    ro.metrics = &checked_metrics;
    DiagSink sink;
    ASSERT_TRUE(run_checked(nc.c, sink, ro).has_value()) << nc.id;
    EXPECT_LE(topology_builds(checked_metrics), builds) << nc.id;
  }
}

}  // namespace
}  // namespace feio::idlz
