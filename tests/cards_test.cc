#include <cmath>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "cards/card_io.h"
#include "cards/format.h"
#include "util/error.h"

namespace feio::cards {
namespace {

TEST(FormatParseTest, SimpleInteger) {
  const Format f = Format::parse("(I5)");
  ASSERT_EQ(f.descriptors().size(), 1u);
  EXPECT_EQ(f.descriptors()[0].kind, EditKind::kInt);
  EXPECT_EQ(f.descriptors()[0].width, 5);
  EXPECT_EQ(f.field_count(), 1);
  EXPECT_EQ(f.record_width(), 5);
}

TEST(FormatParseTest, RepeatCountsExpand) {
  const Format f = Format::parse("(4I5)");
  EXPECT_EQ(f.descriptors().size(), 4u);
  EXPECT_EQ(f.record_width(), 20);
}

TEST(FormatParseTest, PaperIdlzType4) {
  const Format f = Format::parse("(5I5,5X,2I5)");
  EXPECT_EQ(f.field_count(), 7);
  EXPECT_EQ(f.record_width(), 5 * 5 + 5 + 2 * 5);
}

TEST(FormatParseTest, PaperIdlzType6) {
  const Format f = Format::parse("(4I5,5F8.4)");
  EXPECT_EQ(f.field_count(), 9);
  EXPECT_EQ(f.descriptors()[4].kind, EditKind::kFixed);
  EXPECT_EQ(f.descriptors()[4].width, 8);
  EXPECT_EQ(f.descriptors()[4].decimals, 4);
}

TEST(FormatParseTest, PaperNodalPunchFormat) {
  const Format f = Format::parse("(2F9.5,51X,I3,5X,I3)");
  EXPECT_EQ(f.field_count(), 4);
  EXPECT_EQ(f.record_width(), 18 + 51 + 3 + 5 + 3);
}

TEST(FormatParseTest, PaperOsplType3) {
  const Format f = Format::parse("(2F9.5,22X,F10.3,I1)");
  EXPECT_EQ(f.field_count(), 4);
  EXPECT_EQ(f.record_width(), 18 + 22 + 10 + 1);
}

TEST(FormatParseTest, AlphaAndCaseInsensitive) {
  const Format f = Format::parse("(12a6)");
  EXPECT_EQ(f.field_count(), 12);
  EXPECT_EQ(f.record_width(), 72);
  EXPECT_EQ(f.descriptors()[0].kind, EditKind::kAlpha);
}

TEST(FormatParseTest, BlanksIgnored) {
  const Format f = Format::parse("( 2F9.5 , 51X , I3 , 5X , I3 )");
  EXPECT_EQ(f.field_count(), 4);
}

TEST(FormatParseTest, MissingParensAccepted) {
  EXPECT_EQ(Format::parse("3I5").field_count(), 3);
}

TEST(FormatParseTest, ToStringRoundTrip) {
  for (const char* spec :
       {"(I5)", "(4I5)", "(12A6)", "(2I5,5F10.4)", "(2F9.5,51X,I3,5X,I3)",
        "(3I5,62X,I3)", "(2F9.5,22X,F10.3,I1)", "(4I5,5F8.4)"}) {
    const Format f = Format::parse(spec);
    const Format g = Format::parse(f.to_string());
    EXPECT_EQ(f.to_string(), g.to_string()) << spec;
    EXPECT_EQ(f.field_count(), g.field_count()) << spec;
    EXPECT_EQ(f.record_width(), g.record_width()) << spec;
  }
}

TEST(FormatParseTest, ParenthesizedRepeatGroups) {
  const Format f = Format::parse("2(I5,F10.2)");
  ASSERT_EQ(f.descriptors().size(), 4u);
  EXPECT_EQ(f.descriptors()[0].kind, EditKind::kInt);
  EXPECT_EQ(f.descriptors()[1].kind, EditKind::kFixed);
  EXPECT_EQ(f.descriptors()[2].kind, EditKind::kInt);
  EXPECT_EQ(f.descriptors()[3].kind, EditKind::kFixed);
  EXPECT_EQ(f.field_count(), 4);
  EXPECT_EQ(f.record_width(), 30);
}

TEST(FormatParseTest, GroupsMixWithPlainDescriptors) {
  const Format f = Format::parse("(I3,2(F9.5,2X),I3)");
  EXPECT_EQ(f.field_count(), 4);
  EXPECT_EQ(f.record_width(), 3 + 2 * (9 + 2) + 3);
  // A group without a count repeats once.
  EXPECT_EQ(Format::parse("((I5,F10.2))").field_count(), 2);
  // Repeat counts inside a group still expand.
  EXPECT_EQ(Format::parse("2(2F9.5)").field_count(), 4);
}

TEST(FormatParseTest, GroupedFormatRoundTripsThroughToString) {
  const Format f = Format::parse("2(I5,F10.2)");
  const Format g = Format::parse(f.to_string());
  EXPECT_EQ(f.field_count(), g.field_count());
  EXPECT_EQ(f.record_width(), g.record_width());
}

TEST(FormatParseTest, NestedGroupsGetActionableDiagnostic) {
  try {
    Format::parse("(2(I5,2(F10.2)))");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nested FORMAT groups"),
              std::string::npos);
  }
  EXPECT_THROW(Format::parse("(2(I5,F10.2)"), Error);  // unclosed group
  EXPECT_THROW(Format::parse("(2())"), Error);         // empty group
}

TEST(FormatParseTest, Errors) {
  EXPECT_THROW(Format::parse(""), Error);
  EXPECT_THROW(Format::parse("()"), Error);
  EXPECT_THROW(Format::parse("(I)"), Error);       // no width
  EXPECT_THROW(Format::parse("(F8)"), Error);      // no decimals
  EXPECT_THROW(Format::parse("(X)"), Error);       // X needs a count
  EXPECT_THROW(Format::parse("(Q5)"), Error);      // unknown descriptor
  EXPECT_THROW(Format::parse("(I5 I5)"), Error);   // missing comma
  EXPECT_THROW(Format::parse("(I5,"), Error);      // unbalanced paren
}

// Degenerate descriptors — syntactically well-formed but contributing no
// fields or no columns — are rejected with their own stable code
// (E-CARD-006, a ResourceError) instead of silently vanishing: the old
// parser expanded "0I5" to zero items, so a deck author's typo shifted
// every following field one descriptor to the left.
TEST(FormatParseTest, DegenerateDescriptorsRejected) {
  const char* degenerate[] = {
      "(0I5)",           // zero repeat on a scalar descriptor
      "(0F10.2)",        //
      "(0E12.4)",        //
      "(0A4)",           //
      "(0(I5,F10.2))",   // zero repeat on a group
      "(0X)",            // skips no columns
      "(I0)",            // zero width occupies no columns
      "(A0)",            //
      "(F0.2)",          //
      "(E0.3)",          //
      "(3I0)",           // repeat does not launder a zero width
      "(2I5,0F8.4)",     // degenerate anywhere in the list is fatal
  };
  for (const char* spec : degenerate) {
    try {
      Format::parse(spec);
      FAIL() << spec << " parsed";
    } catch (const ResourceError& e) {
      EXPECT_EQ(e.code(), kCodeCardDegenerateFormat) << spec;
    }
  }
  // The non-degenerate neighbours still parse.
  EXPECT_EQ(Format::parse("(1I5)").field_count(), 1);
  EXPECT_EQ(Format::parse("(1X)").record_width(), 1);
  EXPECT_EQ(Format::parse("(1(I5,F10.2))").field_count(), 2);
}

// ---- Field semantics ----------------------------------------------------

TEST(FieldReadTest, IntegerBasics) {
  EXPECT_EQ(read_int_field("  123"), 123);
  EXPECT_EQ(read_int_field("+7"), 7);
  // FORTRAN-66: a blank after the first nonblank is a zero digit, so a
  // left-justified "-45" in a 5-column field picks up a trailing zero.
  EXPECT_EQ(read_int_field(" -45 "), -450);
  EXPECT_EQ(read_int_field(" -45 ", BlankPolicy::kIgnore), -45);
}

TEST(FieldReadTest, BlankAsZeroSemantics) {
  // The motivating case: "1 2" under I3 is 102 on a FORTRAN-66 machine.
  EXPECT_EQ(read_int_field("1 2"), 102);
  EXPECT_EQ(read_int_field("1 2", BlankPolicy::kIgnore), 12);
  EXPECT_EQ(read_int_field("12 "), 120);
  EXPECT_EQ(read_int_field("12 ", BlankPolicy::kIgnore), 12);
  // Leading blanks stay padding under both policies.
  EXPECT_EQ(read_int_field("  12"), 12);
  EXPECT_EQ(read_int_field("  12", BlankPolicy::kIgnore), 12);
  // Reals: interior/trailing blanks become zero digits too.
  EXPECT_DOUBLE_EQ(read_real_field("1 .5", 0), 10.5);
  EXPECT_DOUBLE_EQ(read_real_field("1 .5", 0, BlankPolicy::kIgnore), 1.5);
  EXPECT_DOUBLE_EQ(read_real_field("1.5E2 ", 0), 1.5e20);
  EXPECT_DOUBLE_EQ(read_real_field("1.5E2 ", 0, BlankPolicy::kIgnore), 150.0);
}

TEST(FieldReadTest, BlankIntegerIsZero) {
  EXPECT_EQ(read_int_field("     "), 0);
  EXPECT_EQ(read_int_field(""), 0);
}

TEST(FieldReadTest, GarbageIntegerThrows) {
  EXPECT_THROW(read_int_field(" 12a "), Error);
  EXPECT_THROW(read_int_field("1.5"), Error);
}

TEST(FieldReadTest, RealWithPoint) {
  EXPECT_DOUBLE_EQ(read_real_field("  3.25  ", 4), 3.25);
  EXPECT_DOUBLE_EQ(read_real_field("-0.5", 2), -0.5);
}

TEST(FieldReadTest, ImpliedDecimalPoint) {
  // FORTRAN Fw.d: "12345" under F8.4 reads as 1.2345.
  EXPECT_DOUBLE_EQ(read_real_field("   12345", 4), 1.2345);
  EXPECT_DOUBLE_EQ(read_real_field("-250", 2), -2.5);
}

TEST(FieldReadTest, ExplicitPointOverridesImplied) {
  EXPECT_DOUBLE_EQ(read_real_field("  12.5", 4), 12.5);
}

TEST(FieldReadTest, ExponentForms) {
  EXPECT_DOUBLE_EQ(read_real_field("1.5E2", 0), 150.0);
  EXPECT_DOUBLE_EQ(read_real_field("1.5D2", 0), 150.0);  // FORTRAN double
  EXPECT_DOUBLE_EQ(read_real_field("-2.5e-1", 0), -0.25);
}

TEST(FieldReadTest, BlankRealIsZero) {
  EXPECT_DOUBLE_EQ(read_real_field("        ", 4), 0.0);
}

TEST(FieldWriteTest, IntegerRightJustified) {
  EXPECT_EQ(write_int_field(42, 5), "   42");
  EXPECT_EQ(write_int_field(-42, 5), "  -42");
}

TEST(FieldWriteTest, IntegerOverflowGivesAsterisks) {
  EXPECT_EQ(write_int_field(123456, 5), "*****");
  EXPECT_EQ(write_int_field(-1234, 4), "****");
}

TEST(FieldWriteTest, FixedField) {
  EXPECT_EQ(write_fixed_field(3.25, 9, 5), "  3.25000");
  EXPECT_EQ(write_fixed_field(-0.5, 8, 4), " -0.5000");
  EXPECT_EQ(write_fixed_field(123.456, 8, 4), "123.4560");  // exactly fits
  EXPECT_EQ(write_fixed_field(1234.567, 8, 4), "********");  // overflow
}

TEST(FieldWriteTest, ExponentFieldFortranNormalized) {
  // FORTRAN Ew.d punches 0.dddE+ee with d significant digits, not the C
  // printf d.dddE+ee form with d+1.
  EXPECT_EQ(write_exp_field(12345.678, 12, 4), "  0.1235E+05");
  EXPECT_EQ(write_exp_field(-12345.678, 12, 4), " -0.1235E+05");
  EXPECT_EQ(write_exp_field(0.0625, 11, 3), "  0.625E-01");
  EXPECT_EQ(write_exp_field(0.0, 10, 3), " 0.000E+00");
  EXPECT_NEAR(read_real_field(write_exp_field(12345.678, 12, 4), 0), 12345.678,
              5.0);
  EXPECT_EQ(write_exp_field(1e5, 5, 4), "*****");  // cannot fit
}

TEST(FieldWriteTest, ExponentFieldDropsLeadingZeroWhenOneColumnShort) {
  // 0.1235E+05 needs 10 columns; at width 9 the era's punches dropped the
  // leading zero rather than overflowing.
  EXPECT_EQ(write_exp_field(12345.678, 9, 4), ".1235E+05");
  EXPECT_EQ(write_exp_field(-12345.678, 10, 4), "-.1235E+05");
  // Two columns short is a genuine overflow.
  EXPECT_EQ(write_exp_field(12345.678, 8, 4), "********");
}

TEST(FieldWriteTest, ExponentFieldCStyleCompat) {
  EXPECT_EQ(write_exp_field(12345.678, 12, 4, ExpStyle::kC), "  1.2346E+04");
  EXPECT_TRUE(exp_field_fits(12345.678, 10, 4, ExpStyle::kC));
}

TEST(FieldWriteTest, ExpFieldFitsMatchesWriteExpField) {
  for (double v : {0.0, 1.0, -1.0, 12345.678, -9.999e-12, 6.02e23}) {
    for (int width : {8, 9, 10, 11, 12, 14}) {
      for (int decimals : {2, 4, 6}) {
        const std::string field = write_exp_field(v, width, decimals);
        EXPECT_EQ(exp_field_fits(v, width, decimals),
                  field.find('*') == std::string::npos)
            << v << " E" << width << "." << decimals << " -> '" << field
            << "'";
      }
    }
  }
}

TEST(FieldWriteTest, AlphaLeftJustifiedTruncated) {
  EXPECT_EQ(write_alpha_field("AB", 6), "AB    ");
  EXPECT_EQ(write_alpha_field("ABCDEFGH", 6), "ABCDEF");
}

TEST(FieldWriteTest, ReadBackWhatWasWritten) {
  for (double v : {0.0, 1.5, -2.25, 3.14159, -99.9999}) {
    const std::string field = write_fixed_field(v, 10, 4);
    EXPECT_NEAR(read_real_field(field, 4), v, 5e-5);
  }
}

// ---- decode / encode ----------------------------------------------------

TEST(DecodeTest, IdlzType6Card) {
  const Format f = Format::parse("(4I5,5F8.4)");
  //                   K1   L1   K2   L2  X1      Y1      X2      Y2      R
  const std::string card =
      "    1    1    6    1  0.0000  0.0000  5.0000  0.0000  0.0000";
  const auto fields = decode(card, f);
  ASSERT_EQ(fields.size(), 9u);
  EXPECT_EQ(as_int(fields[0]), 1);
  EXPECT_EQ(as_int(fields[2]), 6);
  EXPECT_DOUBLE_EQ(as_real(fields[6]), 5.0);
}

TEST(DecodeTest, ShortCardReadsTrailingBlanks) {
  const Format f = Format::parse("(3I5)");
  const auto fields = decode("    7", f);
  EXPECT_EQ(as_int(fields[0]), 7);
  EXPECT_EQ(as_int(fields[1]), 0);
  EXPECT_EQ(as_int(fields[2]), 0);
}

TEST(DecodeTest, BlankPolicyFollowsFormat) {
  const std::string card = "1 2";
  EXPECT_EQ(as_int(decode(card, Format::parse("(I3)"))[0]), 102);
  Format bn = Format::parse("(I3)");
  bn.set_blank_policy(BlankPolicy::kIgnore);
  EXPECT_EQ(as_int(decode(card, bn)[0]), 12);
}

TEST(DecodeTest, InteriorBlankEmitsDiag) {
  const Format f = Format::parse("(I3,I3,F6.2)");
  DiagSink sink;
  const auto fields = decode("1 2 12 1 .5", f, sink, {"deck.b", 4, 0, 0});
  // Era-faithful values are returned...
  EXPECT_EQ(as_int(fields[0]), 102);
  EXPECT_EQ(as_int(fields[1]), 12);  // " 12": leading blanks only
  EXPECT_DOUBLE_EQ(as_real(fields[2]), 10.5);
  // ...and each field whose value an interior blank changed is flagged.
  ASSERT_EQ(sink.diags().size(), 2u);
  EXPECT_EQ(sink.diags()[0].code, "E-CARD-005");
  EXPECT_EQ(sink.diags()[0].loc.col_begin, 1);
  EXPECT_EQ(sink.diags()[0].loc.col_end, 3);
  EXPECT_EQ(sink.diags()[1].code, "E-CARD-005");
  EXPECT_EQ(sink.diags()[1].loc.col_begin, 7);
}

TEST(DecodeTest, HarmlessTrailingBlankInRealIsNotFlagged) {
  // "1.50 " reads 1.5 either way ("1.500" under BZ): no diagnostic.
  const Format f = Format::parse("(F5.2)");
  DiagSink sink;
  const auto fields = decode("1.50 ", f, sink, {});
  EXPECT_DOUBLE_EQ(as_real(fields[0]), 1.5);
  EXPECT_TRUE(sink.empty());
}

TEST(DecodeTest, GoldenGroupedFormatDeck) {
  // A user-supplied punch FORMAT using a repeat group, as a type-7 card
  // could carry: two (id, coordinate) pairs per card.
  const Format f = Format::parse("2(I5,F10.2)");
  std::istringstream in(
      "    1      1.25    2      3.50\n"
      "    3     -0.75    4     12.00\n");
  CardReader r(in, "grouped.b");
  const auto c1 = r.read(f);
  ASSERT_EQ(c1.size(), 4u);
  EXPECT_EQ(as_int(c1[0]), 1);
  EXPECT_DOUBLE_EQ(as_real(c1[1]), 1.25);
  EXPECT_EQ(as_int(c1[2]), 2);
  EXPECT_DOUBLE_EQ(as_real(c1[3]), 3.5);
  const auto c2 = r.read(f);
  EXPECT_EQ(as_int(c2[2]), 4);
  EXPECT_DOUBLE_EQ(as_real(c2[1]), -0.75);
}

TEST(EncodeTest, RoundTripThroughDecode) {
  const Format f = Format::parse("(2F9.5,22X,F10.3,I1)");
  const std::string card = encode({1.25, -3.5, 12345.678, 2L}, f);
  EXPECT_EQ(card.size(), static_cast<size_t>(kCardWidth));
  const auto fields = decode(card, f);
  EXPECT_DOUBLE_EQ(as_real(fields[0]), 1.25);
  EXPECT_DOUBLE_EQ(as_real(fields[1]), -3.5);
  EXPECT_DOUBLE_EQ(as_real(fields[2]), 12345.678);
  EXPECT_EQ(as_int(fields[3]), 2);
}

TEST(EncodeTest, IntPromotesToReal) {
  const Format f = Format::parse("(F8.2)");
  EXPECT_EQ(encode({5L}, f).substr(0, 8), "    5.00");
}

TEST(EncodeTest, CountMismatchThrows) {
  const Format f = Format::parse("(2I5)");
  EXPECT_THROW(encode({1L}, f), Error);
  EXPECT_THROW(encode({1L, 2L, 3L}, f), Error);
}

TEST(EncodeTest, TypeMismatchThrows) {
  const Format f = Format::parse("(I5)");
  EXPECT_THROW(encode({std::string("x")}, f), Error);
  EXPECT_THROW(encode({1.5}, f), Error);  // real into integer field
}

// ---- CardReader / CardWriter --------------------------------------------

TEST(CardReaderTest, StreamsAndPads) {
  std::istringstream in("hello\nworld\r\n");
  CardReader r(in);
  auto c1 = r.next_card();
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->size(), static_cast<size_t>(kCardWidth));
  EXPECT_EQ(c1->substr(0, 5), "hello");
  auto c2 = r.next_card();
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->substr(0, 5), "world");  // \r stripped
  EXPECT_FALSE(r.next_card().has_value());
}

TEST(CardReaderTest, SkipsCommentCards) {
  std::istringstream in("* a comment\n    3\n");
  CardReader r(in);
  const auto fields = r.read(Format::parse("(I5)"));
  EXPECT_EQ(as_int(fields[0]), 3);
}

TEST(CardReaderTest, EndOfDeckThrowsWithContext) {
  std::istringstream in("    3\n");
  CardReader r(in);
  r.read(Format::parse("(I5)"));
  EXPECT_THROW(r.read(Format::parse("(I5)")), Error);
}

TEST(CardReaderTest, BadFieldReportsCardNumber) {
  std::istringstream in("    3\n  bad\n");
  CardReader r(in);
  r.read(Format::parse("(I5)"));
  try {
    r.read(Format::parse("(I5)"));
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("card 2"), std::string::npos);
  }
}

TEST(CardWriterTest, CollectsCards) {
  CardWriter w;
  w.write({1L, 2L}, Format::parse("(2I5)"));
  w.write_raw("TITLE CARD");
  // Two 80-column cards, each on its own line.
  const std::string all = w.str();
  ASSERT_EQ(all.size(), 2u * (kCardWidth + 1));
  EXPECT_EQ(all.substr(0, 10), "    1    2");
  EXPECT_EQ(all.substr(kCardWidth + 1, 10), "TITLE CARD");
  EXPECT_EQ(std::count(all.begin(), all.end(), '\n'), 2);
}

TEST(AccessorTest, TypeChecks) {
  EXPECT_THROW(as_int(Field{1.5}), Error);
  EXPECT_THROW(as_alpha(Field{1L}), Error);
  EXPECT_DOUBLE_EQ(as_real(Field{2L}), 2.0);  // int widens
  EXPECT_THROW(as_real(Field{std::string("x")}), Error);
}

// Round-trip property over every deck format the paper uses.
class FormatRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(FormatRoundTrip, EncodeDecodeIdentity) {
  const Format f = Format::parse(GetParam());
  std::vector<Field> values;
  int k = 1;
  for (const EditDescriptor& d : f.descriptors()) {
    switch (d.kind) {
      case EditKind::kInt:
        values.emplace_back(static_cast<long>(k++));
        break;
      case EditKind::kFixed:
      case EditKind::kExp:
        values.emplace_back(k++ * 0.5);
        break;
      case EditKind::kAlpha:
        values.emplace_back(std::string("A"));
        break;
      case EditKind::kSkip:
        break;
    }
  }
  const auto decoded = decode(encode(values, f), f);
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (std::holds_alternative<long>(values[i])) {
      EXPECT_EQ(as_int(decoded[i]), as_int(values[i]));
    } else if (std::holds_alternative<double>(values[i])) {
      EXPECT_NEAR(as_real(decoded[i]), as_real(values[i]), 1e-3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperFormats, FormatRoundTrip,
                         ::testing::Values("(I5)", "(4I5)", "(5I5,5X,2I5)",
                                           "(2I5)", "(4I5,5F8.4)",
                                           "(2I5,5F10.4)",
                                           "(2F9.5,22X,F10.3,I1)", "(3I5)",
                                           "(2F9.5,51X,I3,5X,I3)",
                                           "(3I5,62X,I3)", "(12A6)",
                                           "2(I5,F10.2)", "(I3,2(F9.5,2X))"));

// Randomized round-trip property: random FORMATs (I/F/E/X descriptors,
// E fields included) filled with random values encode to a card that
// decodes back within the field's own precision. Punched fields are
// right-justified, so blank-as-zero input editing must never corrupt a
// round-trip — this is the invariant that makes the BZ default safe.
TEST(FormatRoundTripProperty, RandomFormatsAndValues) {
  std::mt19937 rng(19700131u);  // deterministic: the paper's month
  std::uniform_int_distribution<int> kind_pick(0, 3);
  std::uniform_int_distribution<int> nfields(1, 6);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);

  for (int trial = 0; trial < 200; ++trial) {
    std::string spec = "(";
    const int n = nfields(rng);
    for (int i = 0; i < n; ++i) {
      if (i) spec += ",";
      switch (kind_pick(rng)) {
        case 0:
          spec += "I" + std::to_string(3 + trial % 5);
          break;
        case 1: {
          const int d = 2 + trial % 3;
          spec += "F" + std::to_string(d + 6) + "." + std::to_string(d);
          break;
        }
        case 2: {
          const int d = 2 + trial % 4;
          // sign + "0." + d digits + "E+ee" needs d+7 columns.
          spec += "E" + std::to_string(d + 7) + "." + std::to_string(d);
          break;
        }
        default:
          spec += std::to_string(1 + trial % 3) + "X";
          break;
      }
    }
    spec += ")";
    const Format f = Format::parse(spec);

    std::vector<Field> values;
    std::vector<double> tolerances;
    for (const EditDescriptor& d : f.descriptors()) {
      switch (d.kind) {
        case EditKind::kInt: {
          long max_mag = 1;
          for (int w = 1; w < d.width; ++w) max_mag *= 10;
          values.emplace_back(
              static_cast<long>(unit(rng) * static_cast<double>(max_mag - 1)));
          tolerances.push_back(0.0);
          break;
        }
        case EditKind::kFixed:
          values.emplace_back(unit(rng) * 100.0);
          tolerances.push_back(0.5 * std::pow(10.0, -d.decimals));
          break;
        case EditKind::kExp: {
          const double v = unit(rng) * std::pow(10.0, trial % 7 - 3);
          values.emplace_back(v);
          // d significant digits: relative error <= 5e-d of the magnitude.
          tolerances.push_back(5.0 * std::pow(10.0, -d.decimals) *
                                   std::abs(v) +
                               1e-300);
          break;
        }
        default:
          break;
      }
    }

    const std::string card = encode(values, f);
    DiagSink sink;
    const auto decoded = decode(card, f, sink, {"prop.b", trial + 1, 0, 0});
    ASSERT_EQ(decoded.size(), values.size()) << spec;
    EXPECT_TRUE(sink.empty())
        << spec << " card '" << card << "': " << sink.render_text();
    for (size_t i = 0; i < values.size(); ++i) {
      if (std::holds_alternative<long>(values[i])) {
        EXPECT_EQ(as_int(decoded[i]), as_int(values[i]))
            << spec << " card '" << card << "'";
      } else {
        EXPECT_NEAR(as_real(decoded[i]), as_real(values[i]), tolerances[i])
            << spec << " card '" << card << "'";
      }
    }
  }
}

// Property: take a random valid multi-descriptor spec and zero out one
// descriptor's repeat count (or width) — the corrupted spec must be
// rejected with E-CARD-006 no matter where the degenerate descriptor
// lands, while the original keeps parsing.
TEST(FormatRoundTripProperty, ZeroRepeatInjectionRejected) {
  std::mt19937 rng(19700214u);
  std::uniform_int_distribution<int> kind_pick(0, 3);
  std::uniform_int_distribution<int> nfields(2, 6);
  std::uniform_int_distribution<int> repeat_pick(1, 3);

  for (int trial = 0; trial < 200; ++trial) {
    const int n = nfields(rng);
    std::uniform_int_distribution<int> victim_pick(0, n - 1);
    const int victim = victim_pick(rng);
    std::string good = "(", bad = "(";
    for (int i = 0; i < n; ++i) {
      if (i) {
        good += ",";
        bad += ",";
      }
      std::string desc;
      bool zero_width = false;
      switch (kind_pick(rng)) {
        case 0:
          desc = "I" + std::to_string(3 + trial % 5);
          zero_width = (trial % 2) == 0;  // half the trials corrupt width
          break;
        case 1:
          desc = "F8." + std::to_string(2 + trial % 3);
          break;
        case 2:
          desc = std::to_string(repeat_pick(rng)) + "X";
          break;
        default:
          desc = std::to_string(repeat_pick(rng)) + "(I5,F10.2)";
          break;
      }
      good += desc;
      if (i != victim) {
        bad += desc;
      } else if (zero_width) {
        bad += "I0";  // zero-width corruption
      } else if (desc[0] >= '1' && desc[0] <= '9') {
        bad += "0" + desc.substr(1);  // 2X -> 0X, 3(..) -> 0(..)
      } else {
        bad += "0" + desc;  // I5 -> 0I5, F8.2 -> 0F8.2
      }
    }
    good += ")";
    bad += ")";
    EXPECT_NO_THROW(Format::parse(good)) << good;
    try {
      Format::parse(bad);
      FAIL() << bad << " parsed";
    } catch (const ResourceError& e) {
      EXPECT_EQ(e.code(), kCodeCardDegenerateFormat) << bad;
    }
  }
}

// Blank-laden integer fields: random digits with random blanks spliced in
// agree with a reference model of FORTRAN-66 editing.
TEST(FormatRoundTripProperty, BlankLadenIntegerFields) {
  std::mt19937 rng(1970u);
  std::uniform_int_distribution<int> width_pick(2, 8);
  std::uniform_int_distribution<int> digit(0, 9);
  std::uniform_int_distribution<int> coin(0, 2);

  for (int trial = 0; trial < 300; ++trial) {
    const int width = width_pick(rng);
    std::string field;
    for (int i = 0; i < width; ++i) {
      field += coin(rng) == 0 ? ' ' : static_cast<char>('0' + digit(rng));
    }
    // Reference: leading blanks are padding, later blanks are zero digits.
    std::string bz, bn;
    for (char c : field) {
      if (c == ' ') {
        if (!bz.empty()) bz += '0';
      } else {
        bz += c;
        bn += c;
      }
    }
    const long expect_bz = bz.empty() ? 0 : std::stol(bz);
    const long expect_bn = bn.empty() ? 0 : std::stol(bn);
    EXPECT_EQ(read_int_field(field), expect_bz) << "'" << field << "'";
    EXPECT_EQ(read_int_field(field, BlankPolicy::kIgnore), expect_bn)
        << "'" << field << "'";
  }
}

}  // namespace
}  // namespace feio::cards
