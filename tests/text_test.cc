// Differential tests of the text writer (util/text.h) against the C library's
// printf conversions it replaces, and of the FORMAT engine's Iw / Fw.d / Ew.d
// output against test-only copies of the snprintf code it used before. Every
// artifact feio writes (SVG, listing, cards, reports) is pinned byte for byte
// elsewhere; these tests pin the number writer itself over random and
// edge-case values, so a rounding difference shows here first.
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cards/format.h"
#include "util/diag.h"
#include "util/text.h"

namespace feio {
namespace {

std::string printf_str(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(static_cast<size_t>(n) + 1, '\0');
  std::vsnprintf(out.data(), out.size(), fmt, again);
  va_end(again);
  out.resize(static_cast<size_t>(n));
  return out;
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

// The double `ulps` steps from finite, nonzero `x`; positive steps move
// away from zero.
double ulps_from(double x, int ulps) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return from_bits(bits + static_cast<std::uint64_t>(ulps));
}

// Exact ties, values that round to -0.00, the extremes of the double range,
// subnormals, signed zeros and the non-finite values.
std::vector<double> edge_values() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> v = {
      0.0,      -0.0,     0.5,       1.5,       2.5,       -2.5,
      0.125,    0.375,    -0.125,    0.0625,    1.0625,    1e-7,
      0.005,    0.015,    0.025,     1.005,     2.675,     -0.001,
      -0.004,   -0.0049,  -0.00001,  -1e-300,   1e300,     -1e300,
      1e308,    DBL_MAX,  -DBL_MAX,  DBL_MIN,   -DBL_MIN,  DBL_TRUE_MIN,
      -DBL_TRUE_MIN,      4.9e-324,  2.2250738585072009e-308,
      123456789.125,      999999.5,  9.9999995, 0.99999995, 99.995,
      1e15,     1e16,     1e17,      1e22,      1e23,      9007199254740993.0,
      inf,      -inf,     nan,       -nan,
  };
  // Every k/1000 and k/16 near zero: thousands of exact and near ties.
  for (int k = -2000; k <= 2000; ++k) {
    v.push_back(k / 1000.0);
    v.push_back(k / 16.0);
  }
  // Where append_fixed's integer path hands over, for each decimal count d
  // it takes: (k + 1/2)/10^d and its neighbours within 4 ulps, both signs;
  // values around 2^52/10^d, where the product's rounding step reaches 1/2;
  // and negative values that round to -0.
  const auto near = [&v](double x) {
    for (int ulps = -4; ulps <= 4; ++ulps) v.push_back(ulps_from(x, ulps));
  };
  for (int d = 0; d <= 9; ++d) {
    const double scale = std::pow(10.0, d);
    for (const double k : {0.0, 1.0, 2.0, 7.0, 12.0, 99.0, 12345.0, 1000007.0,
                           987654321.0, 4503599627.0}) {
      near((k + 0.5) / scale);
      near(-(k + 0.5) / scale);
    }
    for (const double fraction : {4.0, 2.0, 1.0, 0.5, 0.25}) {
      near(0x1p52 * fraction / scale);
    }
    for (const double below : {0.4, 0.5, 0.499999999, 0.001}) {
      v.push_back(-below / scale);
    }
  }
  return v;
}

// Random bit patterns (every exponent, subnormals, inf and NaN included),
// plus plot- and card-scale values with few significant digits, where
// printf's round-half-even on exact binary ties matters.
std::vector<double> random_values(std::size_t n) {
  std::mt19937_64 rng(20261018);
  std::uniform_real_distribution<double> coord(-2000.0, 2000.0);
  std::uniform_int_distribution<int> digits(0, 7);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 3) {
      case 0:
        v.push_back(from_bits(rng()));
        break;
      case 1:
        v.push_back(coord(rng));
        break;
      default: {
        const double scale = std::pow(10.0, digits(rng));
        v.push_back(std::round(coord(rng) * scale) / scale);
      }
    }
  }
  return v;
}

std::vector<double> all_values() {
  std::vector<double> v = edge_values();
  const std::vector<double> r = random_values(20000);
  v.insert(v.end(), r.begin(), r.end());
  return v;
}

// append_fixed against printf "%.*f" at `first`..`last` decimals.
void expect_fixed_matches_printf(int first, int last) {
  for (const double v : all_values()) {
    for (int d = first; d <= last; ++d) {
      std::string out = "#";
      const int n = append_fixed(out, v, d);
      const std::string want = printf_str("%.*f", d, v);
      ASSERT_EQ(out, "#" + want)
          << "value bits " << std::hexfloat << v << " decimals " << d;
      ASSERT_EQ(n, static_cast<int>(want.size()));
    }
  }
}

TEST(TextWriterTest, FixedMatchesPrintfAtZeroToSixDecimals) {
  expect_fixed_matches_printf(0, 6);
}

// 7 to 9 decimals take the integer path too; 10 and more do not.
TEST(TextWriterTest, FixedMatchesPrintfAboveSixDecimals) {
  expect_fixed_matches_printf(7, 10);
}

TEST(TextWriterTest, PaddedFixedMatchesPrintfWidth) {
  for (const double v : all_values()) {
    for (const int width : {0, 5, 12}) {
      for (const int d : {0, 3, 9}) {
        std::string out;
        append_fixed(out, v, d, width);
        ASSERT_EQ(out, printf_str("%*.*f", width, d, v))
            << std::hexfloat << v << " width " << width << " decimals " << d;
      }
    }
  }
}

TEST(TextWriterTest, GeneralMatchesPrintfSixSignificantDigits) {
  for (const double v : all_values()) {
    std::string out;
    append_general(out, v, 6);
    ASSERT_EQ(out, printf_str("%.6g", v)) << std::hexfloat << v;
    out.clear();
    append_general(out, v, 6);
    ASSERT_EQ(out, printf_str("%g", v)) << std::hexfloat << v;
  }
}

TEST(TextWriterTest, SciMatchesPrintfUppercaseIncludingInfAndNan) {
  for (const double v : all_values()) {
    for (const int d : {0, 1, 3, 6, 9}) {
      std::string out;
      append_sci(out, v, d);
      ASSERT_EQ(out, printf_str("%.*E", d, v)) << std::hexfloat << v;
    }
  }
  std::string out;
  append_sci(out, std::numeric_limits<double>::infinity(), 2);
  append_sci(out, -std::numeric_limits<double>::infinity(), 2);
  append_sci(out, std::numeric_limits<double>::quiet_NaN(), 2);
  EXPECT_EQ(out, "INF-INFNAN");
}

TEST(TextWriterTest, LongDecimalRequestsRenderOnTheHeap) {
  for (const double v : {1e300, -DBL_MAX, 0.1, -DBL_TRUE_MIN}) {
    for (const int d : {48, 60, 400}) {
      std::string out;
      append_fixed(out, v, d);
      ASSERT_EQ(out, printf_str("%.*f", d, v));
      out.clear();
      append_sci(out, v, d);
      ASSERT_EQ(out, printf_str("%.*E", d, v));
    }
  }
}

TEST(TextWriterTest, IntegersMatchPrintfAtTheExtremes) {
  std::mt19937_64 rng(7);
  std::vector<long long> values = {0,        1,         -1,       9,
                                   10,       -10,       99999,    -99999,
                                   LLONG_MAX, LLONG_MIN, LONG_MAX, LONG_MIN};
  for (int i = 0; i < 20000; ++i) {
    values.push_back(static_cast<long long>(rng()) >> (i % 64));
  }
  for (const long long v : values) {
    for (const int width : {0, 1, 6, 25}) {
      std::string out;
      const int n = append_int(out, v, width);
      ASSERT_EQ(out, printf_str("%*lld", width, v));
      ASSERT_EQ(n, static_cast<int>(printf_str("%lld", v).size()));
    }
  }
}

TEST(TextWriterTest, RightJustifiesTextWithoutTruncating) {
  std::string out;
  append_right(out, "NODE", 6);
  append_right(out, "BNDRY", 3);
  append_right(out, "", 2);
  EXPECT_EQ(out, "  NODEBNDRY  ");
}

TEST(TextWriterTest, XmlEscapeReplacesTheFourMarkupCharacters) {
  std::string out = "<t>";
  append_xml_escaped(out, "a&b<c>d\"e'f");
  EXPECT_EQ(out, "<t>a&amp;b&lt;c&gt;d&quot;e'f");
}

// The snprintf json_escape the writer replaced, byte for byte.
std::string old_json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(TextWriterTest, JsonEscapeMatchesTheSnprintfEscapeOnEveryByte) {
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  std::string out;
  append_json_escaped(out, all);
  EXPECT_EQ(out, old_json_escape(all));
  EXPECT_EQ(json_escape(all), old_json_escape(all));
}

// ---- The FORMAT engine against its former snprintf implementation ----------

std::string old_int_field(long value, int width) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%*ld", width, value);
  std::string out = buf;
  if (static_cast<int>(out.size()) > width) return std::string(width, '*');
  return out;
}

std::string old_fixed_field(double value, int width, int decimals) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%*.*f", width, decimals, value);
  std::string out = buf;
  if (static_cast<int>(out.size()) > width) return std::string(width, '*');
  return out;
}

std::string old_exp_fortran(double value, int decimals) {
  char buf[128];
  if (decimals <= 0) {
    std::snprintf(buf, sizeof buf, "%.0E", value);
    return buf;
  }
  std::snprintf(buf, sizeof buf, "%.*E", decimals - 1, value);
  std::string c_form = buf;
  std::string digits;
  size_t i = 0;
  const bool negative = c_form[0] == '-';
  if (negative || c_form[0] == '+') ++i;
  for (; i < c_form.size() && c_form[i] != 'E' && c_form[i] != 'e'; ++i) {
    if (c_form[i] != '.') digits.push_back(c_form[i]);
  }
  if (i >= c_form.size()) return c_form;
  int exponent = std::atoi(c_form.c_str() + i + 1) + 1;
  if (digits.find_first_not_of('0') == std::string::npos) exponent = 0;
  char tail[16];
  std::snprintf(tail, sizeof tail, "E%+03d", exponent);
  return (negative ? std::string("-0.") : std::string("0.")) + digits + tail;
}

std::string old_exp_image(double value, int width, int decimals,
                          cards::ExpStyle style) {
  std::string s;
  if (style == cards::ExpStyle::kC) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.*E", decimals, value);
    s = buf;
  } else {
    s = old_exp_fortran(value, decimals);
    if (static_cast<int>(s.size()) == width + 1) {
      const size_t zero = s[0] == '-' ? 1 : 0;
      if (zero < s.size() && s[zero] == '0') s.erase(zero, 1);
    }
  }
  if (static_cast<int>(s.size()) > width) return {};
  return s;
}

std::string old_exp_field(double value, int width, int decimals,
                          cards::ExpStyle style) {
  std::string out = old_exp_image(value, width, decimals, style);
  if (out.empty()) return std::string(width, '*');
  out.insert(0, static_cast<size_t>(width) - out.size(), ' ');
  return out;
}

TEST(FormatWriterTest, IwMatchesSnprintfIncludingLongExtremesAndOverflow) {
  std::mt19937_64 rng(11);
  std::vector<long> values = {0, 7, -7, 999, 1000, -999, LONG_MAX, LONG_MIN};
  for (int i = 0; i < 5000; ++i) {
    values.push_back(static_cast<long>(rng()) >> (i % 64));
  }
  for (const long v : values) {
    for (int width = 1; width <= 21; ++width) {
      const std::string want = old_int_field(v, width);
      ASSERT_EQ(cards::write_int_field(v, width), want) << v << " I" << width;
      ASSERT_EQ(cards::int_field_fits(v, width),
                want != std::string(width, '*'));
    }
  }
  EXPECT_EQ(cards::write_int_field(LONG_MIN, 19), "*******************");
  EXPECT_EQ(cards::write_int_field(LONG_MIN, 20), "-9223372036854775808");
  EXPECT_EQ(cards::write_int_field(LONG_MIN, 21), " -9223372036854775808");
  EXPECT_EQ(cards::write_int_field(LONG_MAX, 19), "9223372036854775807");
  EXPECT_EQ(cards::write_int_field(100, 2), "**");
}

TEST(FormatWriterTest, FwdMatchesSnprintf) {
  for (const double v : all_values()) {
    for (const int width : {4, 9, 12}) {
      for (const int d : {0, 2, 5}) {
        const std::string want = old_fixed_field(v, width, d);
        ASSERT_EQ(cards::write_fixed_field(v, width, d), want)
            << std::hexfloat << v << " F" << width << "." << d;
        ASSERT_EQ(cards::fixed_field_fits(v, width, d),
                  want != std::string(width, '*'));
      }
    }
  }
}

TEST(FormatWriterTest, EwdMatchesSnprintfInBothStyles) {
  for (const cards::ExpStyle style :
       {cards::ExpStyle::kFortran, cards::ExpStyle::kC}) {
    for (const double v : all_values()) {
      for (const int width : {4, 8, 9, 10, 16}) {
        for (const int d : {0, 1, 3, 6}) {
          const std::string want = old_exp_field(v, width, d, style);
          ASSERT_EQ(cards::write_exp_field(v, width, d, style), want)
              << std::hexfloat << v << " E" << width << "." << d;
          ASSERT_EQ(cards::exp_field_fits(v, width, d, style),
                    !old_exp_image(v, width, d, style).empty());
        }
      }
    }
  }
}

// to_chars writes "inf" and "nan"; the %E path the cards used writes them in
// capitals, and wide Ew.d fields must keep doing so.
TEST(FormatWriterTest, EwdNonFiniteValuesKeepPrintfCapitals) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const cards::ExpStyle style :
       {cards::ExpStyle::kFortran, cards::ExpStyle::kC}) {
    EXPECT_EQ(cards::write_exp_field(inf, 6, 3, style), "   INF");
    EXPECT_EQ(cards::write_exp_field(-inf, 6, 3, style), "  -INF");
    EXPECT_EQ(cards::write_exp_field(nan, 6, 3, style), "   NAN");
    EXPECT_EQ(cards::write_exp_field(-nan, 6, 3, style), "  -NAN");
    EXPECT_EQ(cards::write_exp_field(-inf, 3, 3, style), "***");
  }
}

// Fields wider than the old fixed snprintf buffers (64 and 128 bytes) keep
// their full width instead of being cut short.
TEST(FormatWriterTest, WideFieldsKeepTheirWidth) {
  const std::string i = cards::write_int_field(7, 70);
  EXPECT_EQ(i, std::string(69, ' ') + "7");
  const std::string f = cards::write_fixed_field(1.5, 150, 2);
  EXPECT_EQ(f, std::string(146, ' ') + "1.50");
}

TEST(FormatWriterTest, AppendedFieldsReportOverflowOnce) {
  std::string card = "|";
  EXPECT_TRUE(cards::append_int_field(card, 42, 4));
  EXPECT_FALSE(cards::append_fixed_field(card, 123.456, 5, 2));
  EXPECT_TRUE(cards::append_exp_field(card, 1234.5, 10, 3));
  EXPECT_EQ(card, "|  42***** 0.123E+04");
}

}  // namespace
}  // namespace feio
