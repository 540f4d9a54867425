// Small string utilities shared across the library's parsers. Kept
// deliberately minimal; no locale dependence. Output goes through
// util/text.h.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace feio {

// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

// Uppercases ASCII letters in place and returns the result.
std::string to_upper(std::string_view s);

// Splits on a single delimiter character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

// True when `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

}  // namespace feio
