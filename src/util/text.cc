#include "util/text.h"

#include <algorithm>
#include <charconv>
#include <cstddef>

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

}  // namespace

int append_int(std::string& out, long long value, int width) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, value);
  const std::size_t n = static_cast<std::size_t>(r.ptr - buf);
  append_padded(out, buf, n, width);
  return static_cast<int>(n);
}

int append_fixed(std::string& out, double value, int decimals, int width) {
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
