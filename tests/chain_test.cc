// Integration tests of the full 1970 production chain, cards included:
//
//   IDLZ deck (Appendix B) -> idealization -> punched nodal/element cards
//   -> [analysis program fills the value column] -> OSPL deck (Appendix C)
//   -> isograms.
//
// This is the workflow the paper's Results section demonstrates on Figures
// 15-18; here the "analysis program" is our FEM substrate.
#include <sstream>

#include <gtest/gtest.h>

#include "cards/card_io.h"
#include "fem/solver.h"
#include "fem/stress.h"
#include "idlz/deck.h"
#include "idlz/idlz.h"
#include "mesh/topology.h"
#include "ospl/deck.h"
#include "ospl/ospl.h"
#include "scenarios/scenarios.h"

namespace feio {
namespace {

// Splices analysis values into IDLZ's punched nodal cards to produce OSPL
// type-3 cards, exactly as the analysis programs of References 1/3 did.
std::string splice_values(const std::string& nodal_cards,
                          const std::vector<double>& values,
                          const mesh::TriMesh& mesh) {
  const cards::Format ospl_fmt =
      cards::Format::parse("(2F9.5,22X,F10.3,I1)");
  std::istringstream in(nodal_cards);
  std::string card;
  std::string out;
  int i = 0;
  while (std::getline(in, card)) {
    out += cards::encode(
        {mesh.pos(i).x, mesh.pos(i).y, values[static_cast<size_t>(i)],
         static_cast<long>(static_cast<int>(mesh.node(i).boundary))},
        ospl_fmt);
    out += '\n';
    ++i;
  }
  EXPECT_EQ(i, mesh.num_nodes());
  return out;
}

TEST(ChainTest, HatchDeckToIsoPlot) {
  // 1. The hatch's IDLZ input, serialized to a card deck and read back —
  //    everything downstream sees only what survived the cards.
  idlz::IdlzCase original = scenarios::fig09_dsrv_hatch();
  original.options.punch_output = true;
  original.options.renumber_nodes = true;
  const std::string idlz_deck = idlz::write_deck({original});
  const std::vector<idlz::IdlzCase> cases =
      idlz::read_deck_string(idlz_deck);
  ASSERT_EQ(cases.size(), 1u);
  const idlz::IdlzResult r = idlz::run(cases[0]);
  ASSERT_FALSE(r.nodal_cards.empty());
  ASSERT_FALSE(r.element_cards.empty());

  // 2. The "analysis program": axisymmetric pressure solve on the mesh the
  //    cards describe.
  fem::StaticProblem prob(r.mesh, fem::Analysis::kAxisymmetric);
  prob.set_material(fem::Material::isotropic(30.0e6, 0.30));
  for (int n = 0; n < r.mesh.num_nodes(); ++n) {
    const geom::Vec2 p = r.mesh.pos(n);
    if (std::abs(p.x) < 1e-6) prob.fix(n, true, false);
    if (p.y < 0.95) prob.fix(n, false, true);  // rim seat
  }
  const mesh::Topology topo(r.mesh);
  int loaded = 0;
  for (const mesh::Edge& e : topo.boundary_edges()) {
    // Outer cap surface: radius ~11.2 (coordinates went through F8.4).
    if (std::abs(r.mesh.pos(e.a).norm() - 11.2) < 1e-3 &&
        std::abs(r.mesh.pos(e.b).norm() - 11.2) < 1e-3) {
      const auto elems = topo.edge_elements(e);
      const mesh::Element& el = r.mesh.element(elems[0]);
      int a = e.a;
      int b = e.b;
      for (int k = 0; k < 3; ++k) {
        if (el.n[static_cast<size_t>(k)] == e.b &&
            el.n[static_cast<size_t>((k + 1) % 3)] == e.a) {
          std::swap(a, b);
          break;
        }
      }
      prob.edge_pressure(a, b, 1000.0);
      ++loaded;
    }
  }
  ASSERT_GT(loaded, 30);
  const fem::StaticSolution sol = fem::solve(prob, RunOptions{});
  const std::vector<double> eff =
      fem::nodal_field(prob, sol, fem::StressComponent::kEffective);

  // 3. Assemble the OSPL deck from the punched cards + element cards.
  std::string ospl_deck =
      cards::encode({static_cast<long>(r.mesh.num_nodes()),
                     static_cast<long>(r.mesh.num_elements()), 0.0, 0.0, 0.0,
                     0.0, 0.0},
                    cards::Format::parse("(2I5,5F10.4)")) +
      "\nDSSV BOTTOM HATCH\nCONTOUR PLOT * EFFECTIVE STRESS *\n";
  ospl_deck += splice_values(r.nodal_cards, eff, r.mesh);
  {
    std::istringstream elems(r.element_cards);
    const cards::Format punch_fmt =
        cards::Format::parse("(3I5,62X,I3)");
    const cards::Format ospl_fmt = cards::Format::parse("(3I5)");
    std::string card;
    while (std::getline(elems, card)) {
      const auto f = cards::decode(card, punch_fmt);
      ospl_deck += cards::encode({f[0], f[1], f[2]}, ospl_fmt) + "\n";
    }
  }

  // 4. OSPL: the deck parses, the plot forms, the range matches the
  //    analysis.
  const ospl::OsplCase oc = ospl::read_deck_string(ospl_deck);
  EXPECT_EQ(oc.mesh.num_nodes(), r.mesh.num_nodes());
  EXPECT_EQ(oc.mesh.num_elements(), r.mesh.num_elements());
  const ospl::OsplResult plot = ospl::run(oc);
  EXPECT_GT(plot.segments.size(), 100u);
  EXPECT_FALSE(plot.labels.accepted.empty());
  const double emax = *std::max_element(eff.begin(), eff.end());
  EXPECT_NEAR(plot.vmax, emax, 0.01 * emax);  // F10.3 truncation only
  // Every isogram level is a positive multiple of the automatic interval.
  for (double level : plot.levels) {
    EXPECT_GT(level, 0.0);
    EXPECT_NEAR(std::fmod(level, plot.delta), 0.0, 1e-6 * plot.delta);
  }
}

TEST(ChainTest, ZoomedPlotOfCriticalArea) {
  // "It may be desirable to zoom-in on a critical area even though some
  // nodes in the data set are outside that area."
  const scenarios::AnalysisOutput out = scenarios::fig13_analysis();
  ospl::OsplCase full;
  full.mesh = out.idlz.mesh;
  full.values = out.fields[0].values;
  const ospl::OsplResult whole = ospl::run(full);

  ospl::OsplCase zoom = full;
  zoom.window = {{8.5, 0.0}, {13.5, 5.0}};  // the rim corner
  const ospl::OsplResult detail = ospl::run(zoom);

  EXPECT_LT(detail.segments.size(), whole.segments.size());
  for (const auto& seg : detail.segments) {
    EXPECT_TRUE(zoom.window.inflated(1e-9).contains(seg.a));
    EXPECT_TRUE(zoom.window.inflated(1e-9).contains(seg.b));
  }
  // The zoom rescopes the value range to the window's nodes, usually
  // tightening the interval.
  EXPECT_LE(detail.vmax - detail.vmin, whole.vmax - whole.vmin);
}

TEST(ChainTest, ThermalChainToCards) {
  // The Reference 3 path: transient temperatures through an OSPL deck.
  const scenarios::AnalysisOutput out = scenarios::fig14_analysis();
  ospl::OsplCase c;
  c.mesh = out.idlz.mesh;
  c.values = out.fields[0].values;
  c.title1 = "TEMPERATURE DISTRIBUTION IN T-BEAM";
  c.title2 = "TIME = 2 SEC";
  c.delta = 10.0;
  const std::string deck = ospl::write_deck(c);
  const ospl::OsplCase rt = ospl::read_deck_string(deck);
  const ospl::OsplResult r = ospl::run(rt);
  EXPECT_DOUBLE_EQ(r.delta, 10.0);
  EXPECT_GT(r.segments.size(), 10u);
  EXPECT_EQ(rt.title2, "TIME = 2 SEC");
}

}  // namespace
}  // namespace feio
