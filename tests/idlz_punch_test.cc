// Punched-card output: the FORTRAN overflow convention, the E-PUNCH-001
// diagnosing overloads, and the field-fitting predicates they share with
// the lint FORMAT checker.
#include <string>

#include <gtest/gtest.h>

#include "cards/format.h"
#include "feio/run_options.h"
#include "idlz/deck.h"
#include "idlz/idlz.h"
#include "idlz/punch.h"
#include "mesh/tri_mesh.h"
#include "mesh/validate.h"
#include "mesh_helpers.h"
#include "scenarios/scenarios.h"
#include "util/diag.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace feio {
namespace {

mesh::TriMesh grid_mesh(int nx, int ny) {
  mesh::TriMesh m;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      m.add_node({static_cast<double>(i), static_cast<double>(j)});
    }
  }
  for (int j = 0; j + 1 < ny; ++j) {
    for (int i = 0; i + 1 < nx; ++i) {
      const int a = j * nx + i;
      m.add_element(a, a + 1, a + nx);
      m.add_element(a + 1, a + nx + 1, a + nx);
    }
  }
  return m;
}

TEST(FieldFitsTest, IntFixedAndExp) {
  EXPECT_TRUE(cards::int_field_fits(99, 2));
  EXPECT_FALSE(cards::int_field_fits(100, 2));
  EXPECT_TRUE(cards::int_field_fits(-9, 2));
  EXPECT_FALSE(cards::int_field_fits(-10, 2));  // sign takes a column
  EXPECT_TRUE(cards::fixed_field_fits(1.5, 8, 4));
  EXPECT_FALSE(cards::fixed_field_fits(12345.0, 7, 4));
  EXPECT_TRUE(cards::exp_field_fits(1.5e10, 10, 3));
}

TEST(PunchDiagTest, ElementNumberOverflowIsOneRecordPerField) {
  // 11x11 grid: 121 nodes, 200 elements. I2 overflows both the node-number
  // fields (>99 nodes) and the element-number field.
  const mesh::TriMesh m = grid_mesh(11, 11);
  DiagSink sink;
  const SourceLoc loc{"deck.b", 16, 0, 0};
  const std::string cards_out =
      idlz::punch_element_cards(m, "(3I2,72X,I2)", sink, loc);
  EXPECT_FALSE(sink.ok());
  // One E-PUNCH-001 per overflowing field (4 fields, all overflow), not one
  // per corrupt card.
  EXPECT_EQ(sink.error_count(), 4);
  for (const Diag& d : sink.diags()) {
    EXPECT_EQ(d.code, "E-PUNCH-001");
    EXPECT_EQ(d.loc.card, 16);   // points at the type-7 FORMAT card
    EXPECT_EQ(d.loc.deck, "deck.b");
  }
  // The message names the first offending entity and the damage extent.
  const std::string report = sink.render_text();
  EXPECT_NE(report.find("element number 100"), std::string::npos) << report;
  EXPECT_NE(report.find("cards punched as asterisks"), std::string::npos);
  // Cards are still punched, overflow as asterisks (FORTRAN convention).
  EXPECT_NE(cards_out.find("**"), std::string::npos);
}

TEST(PunchDiagTest, NodalCoordinateOverflow) {
  mesh::TriMesh m;
  m.add_node({123456.0, 0.0});
  m.add_node({123457.0, 0.0});
  m.add_node({123456.0, 1.0});
  m.add_element(0, 1, 2);
  DiagSink sink;
  const std::string out =
      idlz::punch_nodal_cards(m, "(2F8.4,58X,I3,I3)", sink);
  EXPECT_FALSE(sink.ok());
  EXPECT_EQ(sink.error_count(), 1);  // only the X field overflows
  EXPECT_NE(sink.render_text().find("X coordinate"), std::string::npos)
      << sink.render_text();
  EXPECT_NE(out.find("********"), std::string::npos);
}

TEST(PunchDiagTest, CleanPunchAddsNoDiagnostics) {
  const mesh::TriMesh m = grid_mesh(3, 3);
  DiagSink sink;
  const std::string nodal = idlz::punch_nodal_cards(
      m, idlz::kDefaultNodalFormat, sink);
  const std::string element = idlz::punch_element_cards(
      m, idlz::kDefaultElementFormat, sink);
  EXPECT_TRUE(sink.empty()) << sink.render_text();
  // The diagnosing overloads punch the same cards as the legacy ones.
  EXPECT_EQ(nodal, idlz::punch_nodal_cards(m, idlz::kDefaultNodalFormat));
  EXPECT_EQ(element,
            idlz::punch_element_cards(m, idlz::kDefaultElementFormat));
}

TEST(PunchDiagTest, RunCheckedReportsPunchOverflow) {
  // A deck whose element FORMAT (I2) overflows at its own element count:
  // a 21x4 strip makes 120 elements. run_checked must surface E-PUNCH-001
  // with the FORMAT card's deck location instead of silently returning
  // corrupt card images.
  const std::string deck =
      "    1\n"
      "PUNCH OVERFLOW SET\n"
      "    0    0    1    1\n"
      "    1    1    1   21    4\n"
      "    1    2\n"
      "    1    1   21    1  0.0000  0.0000 20.0000  0.0000  0.0000\n"
      "    1    4   21    4  0.0000  3.0000 20.0000  3.0000  0.0000\n"
      "(2F9.5,51X,I3,5X,I3)\n"
      "(3I5,62X,I2)\n";
  DiagSink sink;
  const auto cases = idlz::read_deck_string(deck, sink, "punch.b");
  ASSERT_EQ(cases.size(), 1u);
  ASSERT_TRUE(sink.ok()) << sink.render_text();
  const auto r = idlz::run_checked(cases.front(), sink);
  ASSERT_TRUE(r.has_value()) << sink.render_text();
  EXPECT_EQ(r->mesh.num_elements(), 120);
  ASSERT_FALSE(sink.ok()) << "expected E-PUNCH-001";
  const Diag* punch = nullptr;
  for (const Diag& d : sink.diags()) {
    if (d.code == "E-PUNCH-001") punch = &d;
  }
  ASSERT_NE(punch, nullptr) << sink.render_text();
  EXPECT_EQ(punch->loc.deck, "punch.b");
  EXPECT_EQ(punch->loc.card, 9);  // the element FORMAT card
  // The element cards were still produced (asterisk-filled where overflown).
  EXPECT_NE(r->element_cards.find("**"), std::string::npos);
}

// A traced checked run punches once: one idlz.punch span, one
// idlz.cards_punched count, and the cards and E-PUNCH-001 records that the
// diagnosing overloads give on the run's mesh, after its validation
// findings. Figure 1 has 85 nodes and 136 elements, so I1 node numbers and
// I2 element numbers overflow.
TEST(PunchDiagTest, CheckedRunPunchesOnceUnderOneSpan) {
  idlz::IdlzCase c = scenarios::fig01_glass_joint();
  c.deck_name = "fig01.b";
  c.options.punch_output = true;
  c.options.nodal_format = "(2F9.5,51X,I3,5X,I1)";
  c.options.element_format = "(3I5,62X,I2)";
  c.options.nodal_format_card = 8;
  c.options.element_format_card = 9;
  util::Tracer tracer;
  util::MetricsRegistry metrics;
  RunOptions opts;
  opts.tracer = &tracer;
  opts.metrics = &metrics;
  DiagSink sink;
  const auto r = idlz::run_checked(c, sink, opts);
  ASSERT_TRUE(r.has_value()) << sink.render_text();
  ASSERT_EQ(r->mesh.num_nodes(), 85);
  ASSERT_EQ(r->mesh.num_elements(), 136);

  DiagSink want;
  mesh_helpers::validate(r->mesh).merge_into(want);
  EXPECT_EQ(r->nodal_cards,
            idlz::punch_nodal_cards(r->mesh, c.options.nodal_format, want,
                                    {"fig01.b", 8, 0, 0}));
  EXPECT_EQ(r->element_cards,
            idlz::punch_element_cards(r->mesh, c.options.element_format, want,
                                      {"fig01.b", 9, 0, 0}));
  EXPECT_EQ(sink.render_text(), want.render_text());
  int overflows = 0;
  for (const Diag& d : sink.diags()) overflows += d.code == "E-PUNCH-001";
  EXPECT_EQ(overflows, 2) << sink.render_text();

  const std::string trace = tracer.render_json();
  const std::string punch_begin =
      R"({"name": "idlz.punch", "cat": "feio", "ph": "B")";
  int punch_spans = 0;
  for (size_t at = trace.find(punch_begin); at != std::string::npos;
       at = trace.find(punch_begin, at + 1)) {
    ++punch_spans;
  }
  EXPECT_EQ(punch_spans, 1);
  EXPECT_EQ(trace.find("punch_checked"), std::string::npos);
  EXPECT_EQ(metrics.snapshot().counters["idlz.cards_punched"], 85 + 136);
}

}  // namespace
}  // namespace feio
