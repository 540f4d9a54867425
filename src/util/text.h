// The one text writer behind every artifact feio produces: SVG plots, the
// IDLZ listing, punched cards, JSON reports, traces and SARIF. Each
// function appends to a caller's std::string, so a document is built in
// one buffer with no temporary string per number. Numbers go through
// std::to_chars, which is locale-free and writes the same bytes as the
// printf conversion named beside each function. append_fixed has a short
// path for 0 to 9 decimals that prints one rounded integer; ties, values
// of 2^52 units and more, and non-finite values still take to_chars, so
// every byte still equals printf's (docs/ALGORITHMS.md).
#pragma once

#include <string>
#include <string_view>

namespace feio {

// printf "%*lld": `value` right-justified in at least `width` columns.
// Returns the length of the number itself (sign included, padding not).
int append_int(std::string& out, long long value, int width = 0);

// printf "%*.*f": `decimals` digits after the point, right-justified in at
// least `width` columns. Returns the length of the number itself.
int append_fixed(std::string& out, double value, int decimals, int width = 0);

// printf "%.*g": `precision` significant digits, trailing zeros dropped.
void append_general(std::string& out, double value, int precision);

// printf "%.*E": one digit, the point, `decimals` digits, 'E', a sign and at
// least two exponent digits. Non-finite values read "INF" and "NAN".
void append_sci(std::string& out, double value, int decimals);

// `text` right-justified in at least `width` columns; never truncates.
void append_right(std::string& out, std::string_view text, int width);

// `text` with & < > " replaced by their XML entities.
void append_xml_escaped(std::string& out, std::string_view text);

// `text` escaped for the inside of a JSON string literal: quote, backslash,
// \n, \r and \t get their short escapes, other control bytes \u00xx.
void append_json_escaped(std::string& out, std::string_view text);

}  // namespace feio
