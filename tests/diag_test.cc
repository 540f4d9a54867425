// The diagnostics engine: DiagSink behaviour, JSON rendering, and the
// golden multi-error recovery contracts for malformed Appendix B (IDLZ)
// and Appendix C (OSPL) decks — one pass reports *all* problems with
// stable codes and card numbers, and clean data sets in a dirty deck
// still process.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cards/card_io.h"
#include "idlz/deck.h"
#include "idlz/idlz.h"
#include "idlz/punch.h"
#include "json_check.h"
#include "mesh/validate.h"
#include "mesh_helpers.h"
#include "ospl/deck.h"
#include "ospl/ospl.h"
#include "util/diag.h"
#include "util/error.h"

namespace feio {
namespace {

// ---- DiagSink ------------------------------------------------------------

TEST(DiagSinkTest, CountsBySeverity) {
  DiagSink sink;
  sink.error("E-TEST-001", "first");
  sink.warning("W-TEST-001", "second");
  sink.note("N-TEST-001", "third");
  sink.error("E-TEST-002", "fourth");
  EXPECT_EQ(sink.error_count(), 2);
  EXPECT_EQ(sink.warning_count(), 1);
  EXPECT_EQ(sink.count(Severity::kNote), 1);
  EXPECT_FALSE(sink.ok());
  ASSERT_NE(sink.first_error(), nullptr);
  EXPECT_EQ(sink.first_error()->code, "E-TEST-001");
}

TEST(DiagSinkTest, OkWithOnlyWarnings) {
  DiagSink sink;
  sink.warning("W-TEST-001", "just a warning");
  EXPECT_TRUE(sink.ok());
  EXPECT_EQ(sink.first_error(), nullptr);
}

TEST(DiagSinkTest, CapDropsRecordsButKeepsCounting) {
  DiagSink sink(3);
  for (int i = 0; i < 10; ++i) {
    sink.error("E-TEST-001", "error " + std::to_string(i));
  }
  EXPECT_EQ(sink.diags().size(), 3u);
  EXPECT_EQ(sink.error_count(), 10);
  EXPECT_TRUE(sink.capped());
  EXPECT_NE(sink.render_text().find("capped"), std::string::npos);
}

TEST(DiagSinkTest, MergeCarriesRecordsAndDroppedCounts) {
  DiagSink a(2);
  a.error("E-TEST-001", "one");
  a.error("E-TEST-002", "two");
  a.error("E-TEST-003", "dropped at a's cap");
  DiagSink b;
  b.warning("W-TEST-001", "warn");
  b.merge(a);
  EXPECT_EQ(b.diags().size(), 3u);  // 1 warning + 2 surviving errors
  EXPECT_EQ(b.error_count(), 3);    // dropped record still counted
  EXPECT_TRUE(b.capped());          // capped state propagates
}

TEST(DiagSinkTest, ThrowIfErrorsCarriesCardContext) {
  DiagSink sink;
  sink.warning("W-TEST-001", "harmless");
  EXPECT_NO_THROW(sink.throw_if_errors());
  sink.error("E-TEST-001", "bad card", {"deck.b", 12, 1, 5});
  try {
    sink.throw_if_errors();
    FAIL() << "expected feio::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("E-TEST-001"), std::string::npos);
    EXPECT_EQ(e.context(), "card 12");
  }
}

TEST(DiagTest, TextRenderingIncludesLocation) {
  Diag d{Severity::kError, "E-CARD-001", "bad integer field 'XX'",
         {"decks/fig.b", 4, 16, 20}};
  EXPECT_EQ(d.to_string(),
            "decks/fig.b: card 4, cols 16-20: error E-CARD-001: "
            "bad integer field 'XX'");
}

// ---- JSON rendering ------------------------------------------------------

TEST(DiagJsonTest, EmptySinkIsValidJson) {
  DiagSink sink;
  const std::string json = sink.render_json();
  EXPECT_TRUE(json_check::valid(json)) << json;
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
}

TEST(DiagJsonTest, EscapesHostileMessages) {
  DiagSink sink;
  sink.error("E-TEST-001", "field \"X\\Y\"\nwith\tcontrol \x01 bytes",
             {"a\"b.deck", 3, 1, 5});
  const std::string json = sink.render_json();
  EXPECT_TRUE(json_check::valid(json)) << json;
}

TEST(DiagJsonTest, CarriesCodesAndCardNumbers) {
  DiagSink sink;
  sink.error("E-CARD-001", "bad integer", {"d.b", 7, 6, 10});
  sink.warning("W-MESH-005", "clockwise");
  const std::string json = sink.render_json();
  EXPECT_TRUE(json_check::valid(json)) << json;
  EXPECT_NE(json.find("\"code\": \"E-CARD-001\""), std::string::npos);
  EXPECT_NE(json.find("\"card\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"warning\""), std::string::npos);
}

// json_check itself must reject garbage, or the assertions above are void.
TEST(DiagJsonTest, ValidatorRejectsMalformedJson) {
  EXPECT_FALSE(json_check::valid("{"));
  EXPECT_FALSE(json_check::valid("{\"a\": }"));
  EXPECT_FALSE(json_check::valid("{\"a\": 1,}"));
  EXPECT_FALSE(json_check::valid("\"unterminated"));
  EXPECT_FALSE(json_check::valid("{\"a\": 1} trailing"));
  EXPECT_TRUE(json_check::valid("{\"a\": [1, -2.5e3, \"x\", null, true]}"));
}

// ---- Golden: malformed Appendix B deck -----------------------------------

// Three distinct malformed cards; every one is reported, with stable codes
// and exact card numbers, in a single pass.
const char* kBadAppendixB =
    "    1\n"                                                        // 1
    "BAD APPENDIX B DECK\n"                                          // 2
    "    0    0    0    2\n"                                         // 3
    "    1    1    1    3    3\n"                                    // 4
    "    2    1    3   XX    5\n"                                    // 5 bad K2
    "    1    2\n"                                                   // 6
    "    1    1    3    1     0.0     0.0     2.Z     0.0     0.0\n"  // 7 bad X2
    "    1    3    3    3     0.0     2.0     2.0     2.0     0.0\n"  // 8
    "    2    0\n"                                                   // 9 NLINES=0
    "\n"                                                             // 10
    "\n";                                                            // 11

TEST(IdlzDeckRecoveryTest, ReportsEveryMalformedCardInOnePass) {
  DiagSink sink;
  const auto cases = idlz::read_deck_string(kBadAppendixB, sink, "bad.b");

  ASSERT_EQ(sink.diags().size(), 4u) << sink.render_text();

  // Card 5: 'XX' in the K2 field (cols 16-20) of a type-4 card...
  EXPECT_EQ(sink.diags()[0].code, "E-CARD-001");
  EXPECT_EQ(sink.diags()[0].loc.card, 5);
  EXPECT_EQ(sink.diags()[0].loc.col_begin, 16);
  EXPECT_EQ(sink.diags()[0].loc.col_end, 20);
  EXPECT_EQ(sink.diags()[0].loc.deck, "bad.b");

  // ...which leaves subdivision 2 geometrically inconsistent.
  EXPECT_EQ(sink.diags()[1].code, "E-IDLZ-004");
  EXPECT_EQ(sink.diags()[1].loc.card, 5);

  // Card 7: '2.Z' in the X2 field (cols 37-44) of a type-6 card.
  EXPECT_EQ(sink.diags()[2].code, "E-CARD-002");
  EXPECT_EQ(sink.diags()[2].loc.card, 7);
  EXPECT_EQ(sink.diags()[2].loc.col_begin, 37);
  EXPECT_EQ(sink.diags()[2].loc.col_end, 44);

  // Card 9: NLINES = 0 violates General Restriction 3.
  EXPECT_EQ(sink.diags()[3].code, "E-IDLZ-003");
  EXPECT_EQ(sink.diags()[3].loc.card, 9);

  // Recovery kept the card stream aligned: the set parsed to completion.
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].subdivisions.size(), 2u);

  // And the whole report is valid JSON.
  EXPECT_TRUE(json_check::valid(sink.render_json()));
}

TEST(IdlzDeckRecoveryTest, FailFastWrapperStillThrows) {
  EXPECT_THROW(idlz::read_deck_string(kBadAppendixB), Error);
}

TEST(IdlzDeckRecoveryTest, ValidSetsInDirtyDeckStillProcess) {
  const std::string deck =
      "    2\n"
      "SET ONE\n"
      "    0    0    0    1\n"
      "    1    1    1    3    3\n"
      "    1    2\n"
      "    1    1    3    1     0.Q     0.0     2.0     0.0     0.0\n"  // 6
      "    1    3    3    3     0.0     2.0     2.0     2.0     0.0\n"
      "\n"
      "\n"
      "SET TWO\n"
      "    0    0    0    1\n"
      "    1    1    1    3    3\n"
      "    1    2\n"
      "    1    1    3    1     0.0     0.0     2.0     0.0     0.0\n"
      "    1    3    3    3     0.0     2.0     2.0     2.0     0.0\n"
      "\n"
      "\n";
  DiagSink sink;
  const auto cases = idlz::read_deck_string(deck, sink, "two_sets.b");
  EXPECT_EQ(sink.error_count(), 1);
  ASSERT_EQ(sink.diags().size(), 1u);
  EXPECT_EQ(sink.diags()[0].code, "E-CARD-002");
  EXPECT_EQ(sink.diags()[0].loc.card, 6);

  // Both sets came back; the clean one idealizes normally.
  ASSERT_EQ(cases.size(), 2u);
  EXPECT_EQ(cases[1].title, "SET TWO");
  DiagSink run_sink;
  const auto r = idlz::run_checked(cases[1], run_sink);
  ASSERT_TRUE(r.has_value()) << run_sink.render_text();
  EXPECT_EQ(r->mesh.num_nodes(), 9);
  EXPECT_EQ(r->mesh.num_elements(), 8);
  EXPECT_TRUE(run_sink.ok());
}

TEST(IdlzDeckRecoveryTest, BadUserFormatFallsBackToDefault) {
  const std::string deck =
      "    1\n"
      "FORMAT FALLBACK\n"
      "    0    0    0    1\n"
      "    1    1    1    3    3\n"
      "    1    2\n"
      "    1    1    3    1     0.0     0.0     2.0     0.0     0.0\n"
      "    1    3    3    3     0.0     2.0     2.0     2.0     0.0\n"
      "(I5\n"  // card 8: unclosed parenthesis
      "\n";
  DiagSink sink;
  const auto cases = idlz::read_deck_string(deck, sink, "fmt.b");
  ASSERT_EQ(sink.diags().size(), 1u);
  EXPECT_EQ(sink.diags()[0].code, "E-FMT-001");
  EXPECT_EQ(sink.diags()[0].loc.card, 8);
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].options.nodal_format, std::string(idlz::kDefaultNodalFormat));
}

TEST(IdlzDeckRecoveryTest, TruncatedDeckReportsDeckEnd) {
  const std::string deck =
      "    1\n"
      "TITLE\n"
      "    0    0    0    2\n"
      "    1    1    1    3    3\n";  // second type-4 card missing
  DiagSink sink;
  const auto cases = idlz::read_deck_string(deck, sink, "short.b");
  EXPECT_TRUE(cases.empty());
  ASSERT_EQ(sink.error_count(), 1);
  EXPECT_EQ(sink.diags()[0].code, "E-CARD-003");
}

TEST(IdlzDeckRecoveryTest, CorruptSetCountAbandonsDeckWithNote) {
  const std::string deck =
      "    1\n"
      "TITLE\n"
      "    0    0    0   -3\n";  // NSBDVN = -3
  DiagSink sink;
  const auto cases = idlz::read_deck_string(deck, sink);
  EXPECT_TRUE(cases.empty());
  ASSERT_GE(sink.diags().size(), 2u);
  EXPECT_EQ(sink.diags()[0].code, "E-IDLZ-002");
  EXPECT_EQ(sink.diags()[1].code, "N-IDLZ-001");
  EXPECT_EQ(sink.diags()[1].severity, Severity::kNote);
}

// ---- Golden: malformed Appendix C deck -----------------------------------

std::string bad_appendix_c() {
  const auto t1 = cards::Format::parse("(2I5,5F10.4)");
  const auto t3 = cards::Format::parse("(2F9.5,22X,F10.3,I1)");
  const auto t4 = cards::Format::parse("(3I5)");
  std::string deck;
  deck += cards::encode({4L, 3L, 0.0, 0.0, 0.0, 0.0, 0.0}, t1) + "\n";  // 1
  deck += "PLOT TITLE\n";                                               // 2
  deck += "SECOND TITLE\n";                                             // 3
  deck += cards::encode({0.0, 0.0, 1.0, 2L}, t3) + "\n";                // 4
  deck += cards::encode({1.0, 0.0, 2.0, 7L}, t3) + "\n";  // 5: flag 7
  deck += cards::encode({0.0, 1.0, 3.0, 2L}, t3) + "\n";                // 6
  std::string bad_x = cards::encode({1.0, 1.0, 4.0, 2L}, t3);
  bad_x.replace(0, 9, "  1.2.3  ");  // 7: garbage X field
  deck += bad_x + "\n";
  deck += cards::encode({1L, 2L, 3L}, t4) + "\n";                       // 8
  deck += cards::encode({2L, 3L, 9L}, t4) + "\n";  // 9: node 9 missing
  deck += cards::encode({2L, 4L, 3L}, t4) + "\n";                       // 10
  return deck;
}

TEST(OsplDeckRecoveryTest, ReportsEveryMalformedCardInOnePass) {
  DiagSink sink;
  const ospl::OsplCase c =
      ospl::read_deck_string(bad_appendix_c(), sink, "bad.c");

  ASSERT_EQ(sink.diags().size(), 3u) << sink.render_text();

  EXPECT_EQ(sink.diags()[0].code, "E-OSPL-003");  // boundary flag 7
  EXPECT_EQ(sink.diags()[0].loc.card, 5);

  EXPECT_EQ(sink.diags()[1].code, "E-CARD-002");  // '1.2.3' X field
  EXPECT_EQ(sink.diags()[1].loc.card, 7);
  EXPECT_EQ(sink.diags()[1].loc.col_begin, 1);
  EXPECT_EQ(sink.diags()[1].loc.col_end, 9);

  EXPECT_EQ(sink.diags()[2].code, "E-OSPL-004");  // node 9 outside 1..NN
  EXPECT_EQ(sink.diags()[2].loc.card, 9);

  // Recovery: all four nodes read, the offending element skipped.
  EXPECT_EQ(c.mesh.num_nodes(), 4);
  EXPECT_EQ(c.mesh.num_elements(), 2);
  EXPECT_TRUE(json_check::valid(sink.render_json()));
}

TEST(OsplDeckRecoveryTest, FailFastWrapperStillThrows) {
  EXPECT_THROW(ospl::read_deck_string(bad_appendix_c()), Error);
}

TEST(OsplDeckRecoveryTest, NonFiniteValueIsDiagnosed) {
  const auto t3 = cards::Format::parse("(2F9.5,22X,F10.3,I1)");
  std::string deck =
      cards::encode({1L, 1L, 0.0, 0.0, 0.0, 0.0, 0.0},
                    cards::Format::parse("(2I5,5F10.4)")) +
      "\nT1\nT2\n";
  std::string card = cards::encode({0.0, 0.0, 1.0, 2L}, t3);
  card.replace(40, 10, "       NAN");  // S value (cols 41-50)
  deck += card + "\n";
  deck += cards::encode({1L, 1L, 1L}, cards::Format::parse("(3I5)")) + "\n";
  DiagSink sink;
  ospl::read_deck_string(deck, sink);
  bool found = false;
  for (const Diag& d : sink.diags()) {
    if (d.code == "E-CARD-004") found = true;
  }
  EXPECT_TRUE(found) << sink.render_text();
}

// ---- run_checked feeds the same sink -------------------------------------

TEST(RunCheckedTest, PipelineFailureBecomesDiagnostic) {
  idlz::IdlzCase c;
  c.title = "EMPTY";
  DiagSink sink;
  const auto r = idlz::run_checked(c, sink);  // no subdivisions -> error
  EXPECT_FALSE(r.has_value());
  ASSERT_EQ(sink.error_count(), 1);
  EXPECT_EQ(sink.diags()[0].code, "E-IDLZ-006");
  EXPECT_NE(sink.diags()[0].message.find("EMPTY"), std::string::npos);
}

TEST(RunCheckedTest, OsplValidationErrorsSuppressRun) {
  ospl::OsplCase c;
  c.mesh.add_node({0, 0});
  c.mesh.add_node({1, 1});
  c.mesh.add_node({2, 2});
  c.mesh.add_element(0, 1, 2);  // zero area
  c.values = {1.0, 2.0, 3.0};
  DiagSink sink;
  const auto r = ospl::run_checked(c, sink);
  EXPECT_FALSE(r.has_value());
  bool mesh_code = false, run_code = false;
  for (const Diag& d : sink.diags()) {
    if (d.code == "E-MESH-004") mesh_code = true;
    if (d.code == "E-OSPL-005") run_code = true;
  }
  EXPECT_TRUE(mesh_code) << sink.render_text();
  EXPECT_TRUE(run_code) << sink.render_text();
}

// Mesh validation findings carry codes and merge into a sink.
TEST(ValidationReportTest, FindingsCarryCodesAndMerge) {
  mesh::TriMesh m;
  m.add_node({0, 0});
  m.add_node({1, 1});
  m.add_node({2, 2});
  m.add_element(0, 1, 2);
  const mesh::ValidationReport rep = mesh_helpers::validate(m);
  ASSERT_FALSE(rep.ok());
  ASSERT_FALSE(rep.diags.empty());
  EXPECT_EQ(rep.diags[0].code, "E-MESH-004");
  EXPECT_FALSE(rep.to_strings().empty());
  DiagSink sink;
  rep.merge_into(sink);
  EXPECT_EQ(sink.error_count(), 1);
}

}  // namespace
}  // namespace feio
