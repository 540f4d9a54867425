// Tests for the lint subsystem: the rule registry, each rule family against
// hand-built cases, the golden "semantically bad" deck (exact codes,
// severities and card locations), the exit-code contract, and the SARIF
// renderer.
#include <algorithm>
#include <cmath>
#include <numbers>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "idlz/deck.h"
#include "json_check.h"
#include "lint/lint.h"
#include "lint/rule.h"
#include "lint/sarif.h"
#include "ospl/deck.h"
#include "scenarios/scenarios.h"

namespace feio {
namespace {

// The golden semantically-bad deck: parses clean but violates five rule
// families at once. Card numbers are load-bearing below.
//   card  4: subdivision 1, a 21x3 strip shaped flat (needles, bandwidth)
//   card  5: subdivision 2, inside subdivision 1 (overlap)
//   card  6: subdivision 3, detached from the others (disconnection)
//   card 14: shaping arc subtending ~155 degrees
//   card 16: element FORMAT whose I2 overflows at 128 elements
const char kBadDeck[] =
    "    1\n"
    "LINT DEMO: FLAT STRIP, OVERLAP, ARC, BAD FORMAT\n"
    "    0    0    1    3\n"
    "    1    1    1   21    3         0    0\n"
    "    2    1    1    5    3         0    0\n"
    "    3   25    1   29    5         0    0\n"
    "    1    2\n"
    "    1    1   21    1  0.0000  0.0000 20.0000  0.0000  0.0000\n"
    "    1    3   21    3  0.0000  0.1000 20.0000  0.1000  0.0000\n"
    "    2    1\n"
    "    1    1    5    1  0.0000  0.0000  4.0000  0.0000  0.0000\n"
    "    3    2\n"
    "   25    1   29    1 24.0000  0.0000 28.0000  0.0000  0.0000\n"
    "   29    5   25    5 28.0000  2.0000 24.0000  2.0000  2.0500\n"
    "(2F9.5,51X,I3,5X,I3)\n"
    "(3I5,62X,I2)\n";

const Diag* find_code(const DiagSink& sink, const std::string& code) {
  for (const Diag& d : sink.diags()) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

TEST(LintRegistryTest, CodesAreUniqueSortedAndComplete) {
  const auto& all = lint::rules();
  ASSERT_FALSE(all.empty());
  std::set<std::string_view> codes;
  for (const lint::Rule& r : all) {
    EXPECT_TRUE(codes.insert(r.code).second) << "duplicate " << r.code;
    EXPECT_FALSE(r.name.empty());
    EXPECT_FALSE(r.summary.empty());
    EXPECT_FALSE(r.paper.empty());
    EXPECT_TRUE(r.code.substr(0, 2) == "L-") << r.code;
  }
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const lint::Rule& a, const lint::Rule& b) {
                               return a.code < b.code;
                             }));
  EXPECT_NE(lint::find_rule("L-FMT-004"), nullptr);
  EXPECT_EQ(lint::find_rule("E-CARD-001"), nullptr);
  EXPECT_EQ(lint::find_rule("L-NOPE-999"), nullptr);
}

TEST(LintGoldenDeckTest, BadDeckReportsExactCodesAndLocations) {
  DiagSink sink;
  lint::lint_idlz_string(kBadDeck, sink, "demo.b");

  struct Expectation {
    const char* code;
    Severity severity;
    int card;  // 0 = whole-mesh finding, no card
  };
  const Expectation expected[] = {
      {"L-SUB-002", Severity::kError, 5},
      {"L-SUB-003", Severity::kWarning, 4},
      {"L-SUB-005", Severity::kError, 14},
      {"L-MESH-001", Severity::kWarning, 0},
      {"L-MESH-004", Severity::kError, 0},
      {"L-MESH-005", Severity::kWarning, 0},
      {"L-FMT-004", Severity::kError, 16},
  };
  for (const Expectation& e : expected) {
    const Diag* d = find_code(sink, e.code);
    ASSERT_NE(d, nullptr) << e.code << " missing:\n" << sink.render_text();
    EXPECT_EQ(d->severity, e.severity) << e.code;
    EXPECT_EQ(d->loc.card, e.card) << e.code;
    EXPECT_EQ(d->loc.deck, "demo.b") << e.code;
    // Every lint finding's code must be registered.
    EXPECT_NE(lint::find_rule(e.code), nullptr) << e.code;
  }
  // Exactly the expected findings: no stray parse errors, nothing else.
  EXPECT_EQ(sink.diags().size(), std::size(expected)) << sink.render_text();
  EXPECT_EQ(lint::exit_code(sink), 2);
}

TEST(LintGoldenDeckTest, CleanDeckIsClean) {
  DiagSink sink;
  lint::lint_idlz_string(
      idlz::write_deck({scenarios::fig02_rectangle()}), sink, "fig02.b");
  EXPECT_TRUE(sink.empty()) << sink.render_text();
  EXPECT_EQ(lint::exit_code(sink), 0);
}

TEST(LintGoldenDeckTest, EveryScenarioDeckLintsWithoutErrors) {
  // The paper's own figures must never trip an error-severity lint; they may
  // carry advisory warnings (e.g. bandwidth advice).
  for (const auto& nc : scenarios::all_idealizations()) {
    DiagSink sink;
    lint::lint_idlz_string(idlz::write_deck({nc.c}), sink, nc.id);
    EXPECT_EQ(sink.error_count(), 0)
        << nc.id << ":\n" << sink.render_text();
  }
}

TEST(LintOsplDeckTest, WideDeltaWarnsAtHeaderCard) {
  ospl::OsplCase c;
  c.title1 = "T1";
  c.title2 = "T2";
  for (int j = 0; j < 5; ++j) {
    for (int i = 0; i < 5; ++i) {
      c.mesh.add_node({static_cast<double>(i), static_cast<double>(j)});
      c.values.push_back(static_cast<double>(i + j));
    }
  }
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 4; ++i) {
      const int a = j * 5 + i;
      c.mesh.add_element(a, a + 1, a + 6);
      c.mesh.add_element(a, a + 6, a + 5);
    }
  }
  c.mesh.classify_boundary(mesh::Topology(c.mesh));
  c.delta = 100.0;

  DiagSink sink;
  lint::lint_ospl_string(ospl::write_deck(c), sink, "demo.c");
  const Diag* d = find_code(sink, "L-OSPL-002");
  ASSERT_NE(d, nullptr) << sink.render_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->loc.card, 1);  // the type-1 header card carries DELTA
  EXPECT_EQ(d->loc.col_begin, 51);
  EXPECT_EQ(d->loc.col_end, 60);
  EXPECT_EQ(lint::exit_code(sink), 1);  // warnings only
}

// ---- Rule-family unit tests ---------------------------------------------

TEST(LintSubdivisionTest, GridBoundsAndDuplicates) {
  idlz::Subdivision out_of_grid;
  out_of_grid.id = 1;
  out_of_grid.k1 = 1; out_of_grid.l1 = 1;
  out_of_grid.k2 = 99999; out_of_grid.l2 = 99999;  // must not be enumerated
  out_of_grid.card = 3;
  idlz::Subdivision dup1;
  dup1.id = 2; dup1.k1 = 1; dup1.l1 = 1; dup1.k2 = 3; dup1.l2 = 3;
  idlz::Subdivision dup2 = dup1;
  dup2.k1 = 3; dup2.k2 = 5; dup2.card = 5;

  DiagSink sink;
  lint::lint_subdivisions({out_of_grid, dup1, dup2}, "d.b", sink);
  const Diag* bounds = find_code(sink, "L-SUB-001");
  ASSERT_NE(bounds, nullptr);
  EXPECT_EQ(bounds->loc.card, 3);
  const Diag* dup = find_code(sink, "L-SUB-004");
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup->loc.card, 5);
  // Adjacent (edge-sharing) subdivisions are not an overlap.
  EXPECT_EQ(find_code(sink, "L-SUB-002"), nullptr) << sink.render_text();
}

TEST(LintSubdivisionTest, ImpossibleArcRadius) {
  idlz::IdlzCase c;
  idlz::ShapingSpec spec;
  spec.subdivision_id = 1;
  spec.lines = {{1, 1, 5, 1, {0, 0}, {4, 0}, 1.0}};  // chord 4, radius 1
  c.shaping = {spec};
  DiagSink sink;
  lint::lint_shaping(c, sink);
  ASSERT_NE(find_code(sink, "L-SUB-006"), nullptr) << sink.render_text();
  EXPECT_EQ(find_code(sink, "L-SUB-005"), nullptr);
}

TEST(LintFormatTest, StructuralRulesNeedNoMesh) {
  idlz::IdlzCase c;
  c.options.nodal_format = "(4I5)";          // coordinates through I fields
  c.options.element_format = "(3I5)";        // only 3 fields
  c.options.nodal_format_card = 7;
  c.options.element_format_card = 8;
  c.deck_name = "f.b";
  DiagSink sink;
  lint::lint_formats(c, nullptr, sink);
  const Diag* type = find_code(sink, "L-FMT-002");
  ASSERT_NE(type, nullptr) << sink.render_text();
  EXPECT_EQ(type->loc.card, 7);
  const Diag* arity = find_code(sink, "L-FMT-001");
  ASSERT_NE(arity, nullptr);
  EXPECT_EQ(arity->loc.card, 8);
}

TEST(LintFormatTest, CardOverflowAndRealThroughIntWarning) {
  idlz::IdlzCase c;
  c.options.nodal_format = "(2F35.5,I5,I5)";  // 80 columns would be fine...
  c.options.element_format = "(3I5,F10.2,55X)";  // real descriptor for a count
  DiagSink sink;
  lint::lint_formats(c, nullptr, sink);
  EXPECT_EQ(find_code(sink, "L-FMT-003"), nullptr);  // exactly 80 fits
  const Diag* warn = find_code(sink, "L-FMT-002");
  ASSERT_NE(warn, nullptr);
  EXPECT_EQ(warn->severity, Severity::kWarning);

  idlz::IdlzCase wide;
  wide.options.nodal_format = "(2F36.5,I5,I5)";  // 82 columns
  DiagSink wsink;
  lint::lint_formats(wide, nullptr, wsink);
  ASSERT_NE(find_code(wsink, "L-FMT-003"), nullptr) << wsink.render_text();
}

TEST(LintFormatTest, RealWidthAgainstMeshExtremes) {
  mesh::TriMesh m;
  m.add_node({12345.0, 0.0});
  m.add_node({12346.0, 0.0});
  m.add_node({12345.0, 1.0});
  m.add_element(0, 1, 2);
  idlz::IdlzCase c;
  c.options.nodal_format = "(2F7.4,I3,I3)";  // 12345.0000 needs 10 columns
  DiagSink sink;
  lint::lint_formats(c, &m, sink);
  const Diag* d = find_code(sink, "L-FMT-005");
  ASSERT_NE(d, nullptr) << sink.render_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST(LintMeshTest, UnreferencedAndInverted) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 0});
  m.add_node({0, 1});
  m.add_node({9, 9});        // referenced by nothing
  m.add_element(0, 2, 1);    // clockwise
  DiagSink sink;
  lint::lint_mesh(m, {}, sink);
  ASSERT_NE(find_code(sink, "L-MESH-002"), nullptr) << sink.render_text();
  const Diag* inv = find_code(sink, "L-MESH-003");
  ASSERT_NE(inv, nullptr);
  EXPECT_EQ(inv->severity, Severity::kError);
}

// L-MESH-001's threshold is 20 degrees: a kite of two isosceles triangles
// whose apex angles (their smallest) sit just below it is two needles, and
// just above it none.
TEST(LintMeshTest, NeedleThresholdIsTwentyDegrees) {
  const auto kite = [](double apex_deg) {
    const double half = apex_deg * std::numbers::pi / 360.0;
    mesh::TriMesh m;
    m.add_node({0, 0});
    m.add_node({std::cos(half), -std::sin(half)});
    m.add_node({std::cos(half), std::sin(half)});
    m.add_node({2 * std::cos(half), 0});
    m.add_element(0, 1, 2);
    m.add_element(3, 2, 1);
    return m;
  };
  DiagSink below;
  lint::lint_mesh(kite(19.9), {}, below);
  const Diag* needles = find_code(below, "L-MESH-001");
  ASSERT_NE(needles, nullptr) << below.render_text();
  EXPECT_NE(needles->message.find("2 of 2 elements"), std::string::npos)
      << needles->message;
  DiagSink above;
  lint::lint_mesh(kite(20.1), {}, above);
  EXPECT_EQ(find_code(above, "L-MESH-001"), nullptr) << above.render_text();
}

TEST(LintOsplTest, FlatNegativeAndExcessiveIntervals) {
  ospl::OsplCase c;
  c.mesh.add_node({0, 0});
  c.mesh.add_node({1, 0});
  c.mesh.add_node({0, 1});
  c.mesh.add_element(0, 1, 2);
  c.values = {1.0, 1.0, 1.0};
  c.delta = -2.0;
  DiagSink sink;
  lint::lint_ospl_case(c, sink);
  ASSERT_NE(find_code(sink, "L-OSPL-001"), nullptr) << sink.render_text();
  const Diag* neg = find_code(sink, "L-OSPL-003");
  ASSERT_NE(neg, nullptr);
  EXPECT_EQ(neg->severity, Severity::kError);

  c.values = {0.0, 5000.0, 10000.0};
  c.delta = 0.01;  // a million levels
  DiagSink dsink;
  lint::lint_ospl_case(c, dsink);
  ASSERT_NE(find_code(dsink, "L-OSPL-004"), nullptr) << dsink.render_text();

  c.delta = 0.0;  // automatic interval: never degenerate
  DiagSink asink;
  lint::lint_ospl_case(c, asink);
  EXPECT_TRUE(asink.empty()) << asink.render_text();
}

// L-OSPL-004 allows 200 contour levels in range and warns at 201.
TEST(LintOsplTest, LevelLimitIsTwoHundred) {
  ospl::OsplCase c;
  c.mesh.add_node({0, 0});
  c.mesh.add_node({1, 0});
  c.mesh.add_node({0, 1});
  c.mesh.add_element(0, 1, 2);
  c.delta = 1.0;
  c.values = {0.0, 100.0, 199.0};  // levels 0, 1, ..., 199
  DiagSink at_limit;
  lint::lint_ospl_case(c, at_limit);
  EXPECT_EQ(find_code(at_limit, "L-OSPL-004"), nullptr)
      << at_limit.render_text();
  c.values = {0.0, 100.0, 200.0};  // levels 0, 1, ..., 200
  DiagSink over;
  lint::lint_ospl_case(c, over);
  ASSERT_NE(find_code(over, "L-OSPL-004"), nullptr) << over.render_text();
}

TEST(LintOsplTest, WindowMissingTheMesh) {
  ospl::OsplCase c;
  c.mesh.add_node({0, 0});
  c.mesh.add_node({1, 0});
  c.mesh.add_node({0, 1});
  c.mesh.add_element(0, 1, 2);
  c.values = {0.0, 1.0, 2.0};
  c.window.lo = {100.0, 100.0};
  c.window.hi = {101.0, 101.0};
  DiagSink sink;
  lint::lint_ospl_case(c, sink);
  ASSERT_NE(find_code(sink, "L-OSPL-005"), nullptr) << sink.render_text();
}

// ---- Exit-code contract --------------------------------------------------

TEST(LintExitCodeTest, Contract) {
  DiagSink clean;
  EXPECT_EQ(lint::exit_code(clean), 0);
  DiagSink notes;
  notes.note("N", "note only");
  EXPECT_EQ(lint::exit_code(notes), 0);
  DiagSink warns;
  warns.warning("W", "warning");
  EXPECT_EQ(lint::exit_code(warns), 1);
  DiagSink errors;
  errors.warning("W", "warning");
  errors.error("E", "error");
  EXPECT_EQ(lint::exit_code(errors), 2);
}

// ---- SARIF renderer ------------------------------------------------------

TEST(LintSarifTest, EmptySinkIsValidSarif) {
  DiagSink sink;
  const std::string sarif = lint::render_sarif(sink);
  ASSERT_TRUE(json_check::valid(sarif)) << sarif;
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"feio-lint\""), std::string::npos);
  // The registry rides along even with no results.
  EXPECT_NE(sarif.find("L-FMT-004"), std::string::npos);
  EXPECT_NE(sarif.find("\"results\":[]"), std::string::npos);
}

TEST(LintSarifTest, BadDeckSarifCarriesResultsWithLocations) {
  DiagSink sink;
  lint::lint_idlz_string(kBadDeck, sink, "demo.b");
  const std::string sarif = lint::render_sarif(sink);
  ASSERT_TRUE(json_check::valid(sarif)) << sarif;
  EXPECT_NE(sarif.find("\"ruleId\":\"L-SUB-002\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"L-FMT-004\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\":\"demo.b\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":16"), std::string::npos);
  // Severity mapping: warnings render as "warning".
  EXPECT_NE(sarif.find("\"level\":\"warning\""), std::string::npos);
}

TEST(LintSarifTest, EscapesMessageContent) {
  DiagSink sink;
  sink.error("L-TEST", "a \"quoted\"\nmessage \\ with specials",
             {"deck \"x\".b", 2, 1, 5});
  const std::string sarif = lint::render_sarif(sink);
  ASSERT_TRUE(json_check::valid(sarif)) << sarif;
}

// Lint drivers also surface parse-time diagnostics, so one run reports both.
TEST(LintDriverTest, ParseErrorsRideAlong) {
  DiagSink sink;
  lint::lint_idlz_string("garbage that is not a deck\n", sink, "bad.b");
  EXPECT_FALSE(sink.ok());
  EXPECT_EQ(lint::exit_code(sink), 2);
  ASSERT_TRUE(json_check::valid(lint::render_sarif(sink)));
}

}  // namespace
}  // namespace feio
