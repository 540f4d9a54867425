#include "cards/format.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/error.h"
#include "util/strings.h"
#include "util/text.h"

namespace feio::cards {
namespace {

// Degenerate descriptors (zero repeats, zero widths, 0X) parse under
// classic FORTRAN rules but contribute nothing, silently misaligning every
// later field. Rejected with the stable E-CARD-006 code.
[[noreturn]] void fail_degenerate(const std::string& detail) {
  throw ResourceError(kCodeCardDegenerateFormat,
                      "degenerate FORMAT descriptor: " + detail);
}

struct Cursor {
  std::string_view s;
  size_t pos = 0;

  bool done() const { return pos >= s.size(); }
  char peek() const { return s[pos]; }
  char take() { return s[pos++]; }

  void skip_blanks() {
    while (!done() && std::isspace(static_cast<unsigned char>(peek()))) ++pos;
  }

  // Reads an unsigned integer; returns -1 when none present.
  int take_number() {
    skip_blanks();
    if (done() || !std::isdigit(static_cast<unsigned char>(peek()))) return -1;
    int v = 0;
    while (!done() && std::isdigit(static_cast<unsigned char>(peek()))) {
      v = v * 10 + (take() - '0');
      FEIO_REQUIRE(v < 100000, "FORMAT count too large");
    }
    return v;
  }
};

// Parses a comma-separated descriptor list: the whole FORMAT body when
// `in_group` is false, or the inside of one parenthesized repeat group
// (up to but not including the ')') when true. One level of grouping only —
// the paper's user FORMATs never nest deeper, and a second level is almost
// always a typo worth a precise message rather than silent acceptance.
std::vector<EditDescriptor> parse_items(Cursor& cur, bool in_group) {
  std::vector<EditDescriptor> items;
  bool expect_item = true;
  while (true) {
    cur.skip_blanks();
    if (cur.done()) {
      FEIO_REQUIRE(!in_group, "FORMAT group missing closing parenthesis");
      break;
    }
    if (in_group && cur.peek() == ')') {
      cur.take();
      FEIO_REQUIRE(!items.empty(), "empty FORMAT group");
      return items;
    }
    if (!expect_item) {
      FEIO_REQUIRE(cur.peek() == ',', "FORMAT items must be comma separated");
      cur.take();
      expect_item = true;
      continue;
    }

    const int count = cur.take_number();
    cur.skip_blanks();
    FEIO_REQUIRE(!cur.done(), "FORMAT ends after a repeat count");
    const char c = cur.take();

    if (c == '(') {
      FEIO_REQUIRE(!in_group,
                   "nested FORMAT groups are not supported: flatten the "
                   "inner group (one level of parentheses, as in "
                   "2(I5,F10.2), is accepted)");
      const std::vector<EditDescriptor> group = parse_items(cur, true);
      if (count == 0) {
        fail_degenerate(
            "group repeat count 0 contributes no fields (as in "
            "'0(I5,F10.2)')");
      }
      const int repeat = count < 0 ? 1 : count;
      for (int i = 0; i < repeat; ++i) {
        items.insert(items.end(), group.begin(), group.end());
      }
      expect_item = false;
      continue;
    }

    EditDescriptor d;
    if (count == 0 && c != 'X') {
      fail_degenerate(std::string("repeat count 0 on '") + c +
                      "' contributes no fields (as in '0" + c + "5')");
    }
    int repeat = count < 0 ? 1 : count;
    switch (c) {
      case 'I':
      case 'F':
      case 'E':
      case 'A': {
        const int width = cur.take_number();
        if (width == 0) {
          fail_degenerate(std::string("zero-width '") + c +
                          "0' occupies no card columns");
        }
        FEIO_REQUIRE(width > 0, std::string("FORMAT descriptor ") + c +
                                    " requires a positive width");
        d.width = width;
        if (c == 'F' || c == 'E') {
          cur.skip_blanks();
          FEIO_REQUIRE(!cur.done() && cur.peek() == '.',
                       std::string("FORMAT descriptor ") + c +
                           " requires a decimal count");
          cur.take();
          const int dec = cur.take_number();
          FEIO_REQUIRE(dec >= 0, "FORMAT decimal count missing");
          d.decimals = dec;
          d.kind = c == 'F' ? EditKind::kFixed : EditKind::kExp;
        } else {
          d.kind = c == 'I' ? EditKind::kInt : EditKind::kAlpha;
        }
        break;
      }
      case 'X': {
        if (count == 0) fail_degenerate("'0X' skips no card columns");
        FEIO_REQUIRE(count > 0, "X descriptor requires a leading count");
        d.kind = EditKind::kSkip;
        d.width = count;
        repeat = 1;
        break;
      }
      default:
        fail(std::string("unsupported FORMAT descriptor '") + c + "'");
    }
    for (int i = 0; i < repeat; ++i) items.push_back(d);
    expect_item = false;
  }
  return items;
}

// Applies a blank policy to one numeric field: leading blanks are dropped,
// and every later blank is either a zero digit (FORTRAN-66) or dropped
// (modern BN). Returns the compacted digits-and-punctuation string; empty
// means the field was all blank.
std::string compact_field(std::string_view field, BlankPolicy policy) {
  std::string compact;
  compact.reserve(field.size());
  for (char c : field) {
    if (c == ' ') {
      if (compact.empty()) continue;  // leading blanks are padding
      if (policy == BlankPolicy::kBlankAsZero) compact.push_back('0');
      continue;  // BN: interior/trailing blanks ignored
    }
    compact.push_back(c);
  }
  return compact;
}

}  // namespace

Format Format::parse(std::string_view spec) {
  std::string upper = to_upper(trim(spec));
  std::string_view body = upper;
  if (!body.empty() && body.front() == '(') {
    FEIO_REQUIRE(body.back() == ')', "FORMAT missing closing parenthesis");
    body = body.substr(1, body.size() - 2);
  }

  Format fmt;
  Cursor cur{body};
  fmt.items_ = parse_items(cur, /*in_group=*/false);
  FEIO_REQUIRE(!fmt.items_.empty(), "empty FORMAT");
  return fmt;
}

int Format::field_count() const {
  int n = 0;
  for (const auto& d : items_) {
    if (d.kind != EditKind::kSkip) ++n;
  }
  return n;
}

int Format::record_width() const {
  int w = 0;
  for (const auto& d : items_) w += d.width;
  return w;
}

std::string Format::to_string() const {
  std::string out = "(";
  for (size_t i = 0; i < items_.size();) {
    size_t j = i;
    while (j < items_.size() && items_[j].kind == items_[i].kind &&
           items_[j].width == items_[i].width &&
           items_[j].decimals == items_[i].decimals &&
           items_[i].kind != EditKind::kSkip) {
      ++j;
    }
    const size_t run = std::max<size_t>(1, j - i);
    const EditDescriptor& d = items_[i];
    if (i + 1 < j) out += std::to_string(run);
    switch (d.kind) {
      case EditKind::kInt:
        out += "I" + std::to_string(d.width);
        break;
      case EditKind::kFixed:
        out += "F" + std::to_string(d.width) + "." + std::to_string(d.decimals);
        break;
      case EditKind::kExp:
        out += "E" + std::to_string(d.width) + "." + std::to_string(d.decimals);
        break;
      case EditKind::kAlpha:
        out += "A" + std::to_string(d.width);
        break;
      case EditKind::kSkip:
        out += std::to_string(d.width) + "X";
        break;
    }
    i = std::max(j, i + 1);
    if (i < items_.size()) out += ",";
  }
  out += ")";
  return out;
}

long read_int_field(std::string_view field, BlankPolicy policy) {
  const std::string compact = compact_field(field, policy);
  if (compact.empty()) return 0;  // all-blank field reads as zero
  char* end = nullptr;
  const long v = std::strtol(compact.c_str(), &end, 10);
  FEIO_REQUIRE(end && *end == '\0',
               "bad integer field '" + std::string(field) + "'");
  return v;
}

double read_real_field(std::string_view field, int implied_decimals,
                       BlankPolicy policy) {
  std::string compact = compact_field(field, policy);
  if (compact.empty()) return 0.0;

  const bool has_point = compact.find('.') != std::string::npos;
  const bool has_exp = compact.find_first_of("EeDd") != std::string::npos;
  // FORTRAN D exponents.
  for (char& c : compact) {
    if (c == 'D' || c == 'd') c = 'E';
  }
  char* end = nullptr;
  double v = std::strtod(compact.c_str(), &end);
  FEIO_REQUIRE(end && *end == '\0',
               "bad real field '" + std::string(field) + "'");
  if (!has_point && !has_exp && implied_decimals > 0) {
    v /= std::pow(10.0, implied_decimals);
  }
  return v;
}

namespace {

// Minimal FORTRAN-normalized Ew.d rendering: sign, "0.", `decimals`
// mantissa digits, "E", exponent sign, two-or-more exponent digits. The
// mantissa lies in [0.1, 1), so the exponent is the C %E exponent plus one.
// decimals == 0 keeps the C form (FORTRAN Ew.0 punches no mantissa digits,
// which loses the value; no deck the paper describes uses it).
void append_exp_fortran(std::string& out, double value, int decimals) {
  if (decimals <= 0) {
    append_sci(out, value, 0);
    return;
  }
  const size_t at = out.size();
  append_sci(out, value, decimals - 1);  // "[-]d.ddE+xx"
  // Non-finite values have no 'E'; keep the C rendering and let the width
  // check turn it into asterisks (or not) exactly as for finite ones.
  const size_t e = out.find('E', at);
  if (e == std::string::npos) return;
  int exponent = 0;
  for (size_t i = e + 2; i < out.size(); ++i) {
    exponent = exponent * 10 + (out[i] - '0');
  }
  if (out[e + 1] == '-') exponent = -exponent;
  // %E prints zero as 0.00E+00; the normalized form of zero is 0.00E+00
  // too (mantissa all zeros, exponent zero), not 0.00E+01.
  exponent = value == 0.0 ? 0 : exponent + 1;
  out.resize(e + 1);
  out += exponent < 0 ? '-' : '+';
  if (std::abs(exponent) < 10) out += '0';
  append_int(out, std::abs(exponent));
  // "d.dd" becomes "0.ddd": the lead digit moves into the point's column.
  const size_t lead = at + (out[at] == '-' ? 1 : 0);
  if (decimals > 1) {
    out[lead + 1] = out[lead];
    out.replace(lead, 1, "0.");
  } else {
    out.insert(lead, "0.");
  }
}

// Replaces the image appended since `at` with `width` asterisks.
bool overflow(std::string& out, size_t at, int width) {
  out.resize(at);
  out.append(static_cast<size_t>(width), '*');
  return false;
}

}  // namespace

bool append_int_field(std::string& out, long value, int width) {
  const size_t at = out.size();
  return append_int(out, value, width) <= width || overflow(out, at, width);
}

bool append_fixed_field(std::string& out, double value, int width,
                        int decimals) {
  const size_t at = out.size();
  return append_fixed(out, value, decimals, width) <= width ||
         overflow(out, at, width);
}

bool append_exp_field(std::string& out, double value, int width, int decimals,
                      ExpStyle style) {
  const size_t at = out.size();
  if (style == ExpStyle::kC) {
    append_sci(out, value, decimals);
  } else {
    append_exp_fortran(out, value, decimals);
    if (out.size() - at == static_cast<size_t>(width) + 1) {
      // One column short: drop the leading zero ("0.123E+05" -> ".123E+05"),
      // as the era's FORMAT processors did.
      const size_t zero = at + (out[at] == '-' ? 1 : 0);
      if (out[zero] == '0') out.erase(zero, 1);
    }
  }
  const size_t n = out.size() - at;
  if (n > static_cast<size_t>(width)) return overflow(out, at, width);
  out.insert(at, static_cast<size_t>(width) - n, ' ');
  return true;
}

bool int_field_fits(long value, int width) {
  std::string image;
  return append_int(image, value) <= width;
}

bool fixed_field_fits(double value, int width, int decimals) {
  std::string image;
  return append_fixed(image, value, decimals) <= width;
}

bool exp_field_fits(double value, int width, int decimals, ExpStyle style) {
  std::string image;
  return append_exp_field(image, value, width, decimals, style);
}

std::string write_int_field(long value, int width) {
  std::string out;
  append_int_field(out, value, width);
  return out;
}

std::string write_fixed_field(double value, int width, int decimals) {
  std::string out;
  append_fixed_field(out, value, width, decimals);
  return out;
}

std::string write_exp_field(double value, int width, int decimals,
                            ExpStyle style) {
  std::string out;
  append_exp_field(out, value, width, decimals, style);
  return out;
}

std::string write_alpha_field(std::string_view value, int width) {
  std::string out(value.substr(0, static_cast<size_t>(width)));
  out.resize(static_cast<size_t>(width), ' ');
  return out;
}

}  // namespace feio::cards
