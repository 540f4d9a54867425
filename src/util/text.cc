#include "util/text.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace feio {
namespace {

// Stack room for every rendering the library asks for: a double in fixed
// notation with up to 40 decimals needs at most 351 characters (sign, 309
// integer digits, the point). Longer requests render on the heap.
constexpr std::size_t kStackChars = 360;

void append_padded(std::string& out, const char* text, std::size_t n,
                   int width) {
  if (width > 0 && n < static_cast<std::size_t>(width)) {
    out.append(static_cast<std::size_t>(width) - n, ' ');
  }
  out.append(text, n);
}

// Renders a double through one to_chars call into a buffer of `room`
// characters plus `precision` and appends it right-justified in `width`
// columns.
int append_double(std::string& out, double value, std::chars_format format,
                  int precision, std::size_t room, int width) {
  const std::size_t max_len =
      room + static_cast<std::size_t>(std::max(precision, 0));
  char stack[kStackChars];
  std::string heap;
  char* first = stack;
  if (max_len > kStackChars) {
    heap.resize(max_len);
    first = heap.data();
  }
  const std::to_chars_result r =
      std::to_chars(first, first + max_len, value, format, precision);
  const std::size_t n = static_cast<std::size_t>(r.ptr - first);
  append_padded(out, first, n, width);
  return static_cast<int>(n);
}

// 10^d for the decimal counts the integer path prints; each is exact.
constexpr double kPow10[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};

// printf "%.*f" for 0 <= decimals <= 9 from one rounded integer, written
// to end at `end`; returns its first character, or nullptr when the value
// needs the full conversion. p is |value| * 10^d rounded once, x the exact
// product. Below 2^52 every half-integer is a double and rounding is
// monotone, so unless p is itself a half-integer, p and x lie between the
// same two half-integers and round to the same integer: printf's correctly
// rounded value. floor(p) and p - floor(p) are exact there. Products that
// round to a half-integer (every tie, and the near-ties that land on one),
// p >= 2^52, NaN and the infinities return nullptr.
char* fixed_from_integer(char* end, double value, int decimals) {
  if (decimals < 0 || decimals > 9) return nullptr;
  const double p = std::fabs(value) * kPow10[decimals];
  if (!(p < 0x1p52)) return nullptr;
  const double whole = std::floor(p);
  const double frac = p - whole;
  if (frac == 0.5) return nullptr;
  std::uint64_t q = static_cast<std::uint64_t>(whole) + (frac > 0.5 ? 1 : 0);
  char* first = end;
  for (int i = 0; i < decimals; ++i) {
    *--first = static_cast<char>('0' + q % 10);
    q /= 10;
  }
  if (decimals > 0) *--first = '.';
  do {
    *--first = static_cast<char>('0' + q % 10);
    q /= 10;
  } while (q != 0);
  if (std::signbit(value)) *--first = '-';
  return first;
}

}  // namespace

int append_int(std::string& out, long long value, int width) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, value);
  const std::size_t n = static_cast<std::size_t>(r.ptr - buf);
  append_padded(out, buf, n, width);
  return static_cast<int>(n);
}

int append_fixed(std::string& out, double value, int decimals, int width) {
  // A sign, 16 digits and the point.
  char buf[24];
  char* const end = buf + sizeof buf;
  if (const char* first = fixed_from_integer(end, value, decimals)) {
    const std::size_t n = static_cast<std::size_t>(end - first);
    append_padded(out, first, n, width);
    return static_cast<int>(n);
  }
  return append_double(out, value, std::chars_format::fixed, decimals, 312,
                       width);
}

void append_general(std::string& out, double value, int precision) {
  append_double(out, value, std::chars_format::general, precision, 16, 0);
}

void append_sci(std::string& out, double value, int decimals) {
  const std::size_t at = out.size();
  append_double(out, value, std::chars_format::scientific, decimals, 16, 0);
  // to_chars writes 'e', "inf" and "nan"; %E writes them in capitals.
  for (std::size_t i = at; i < out.size(); ++i) {
    if (out[i] >= 'a' && out[i] <= 'z') out[i] = static_cast<char>(out[i] - 32);
  }
}

void append_right(std::string& out, std::string_view text, int width) {
  append_padded(out, text.data(), text.size(), width);
}

void append_xml_escaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
}

void append_json_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          out += "\\u00";
          out += kHex[byte >> 4];
          out += kHex[byte & 0xF];
        } else {
          out += c;
        }
      }
    }
  }
}

}  // namespace feio
