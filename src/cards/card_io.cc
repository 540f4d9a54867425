#include "cards/card_io.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/fault.h"

namespace feio::cards {
namespace {

// Whether the field holds an interior blank that blank-as-zero editing will
// turn into a digit: a blank after the first nonblank character. Fields
// where that changes nothing ("12 " and "1 2" both qualify; whether the
// *value* changed is checked by comparing the two parses).
bool has_interior_blank(std::string_view field) {
  size_t first = field.find_first_not_of(' ');
  if (first == std::string_view::npos) return false;
  return field.find(' ', first) != std::string_view::npos;
}

}  // namespace

std::vector<Field> decode(std::string_view card, const Format& format) {
  std::vector<Field> out;
  out.reserve(static_cast<size_t>(format.field_count()));
  const BlankPolicy bp = format.blank_policy();
  size_t col = 0;
  for (const EditDescriptor& d : format.descriptors()) {
    std::string_view field;
    if (col < card.size()) {
      field = card.substr(col, static_cast<size_t>(d.width));
    }
    col += static_cast<size_t>(d.width);
    switch (d.kind) {
      case EditKind::kSkip:
        break;
      case EditKind::kInt:
        out.emplace_back(read_int_field(field, bp));
        break;
      case EditKind::kFixed:
      case EditKind::kExp:
        out.emplace_back(read_real_field(field, d.decimals, bp));
        break;
      case EditKind::kAlpha: {
        std::string text(field);
        text.resize(static_cast<size_t>(d.width), ' ');
        out.emplace_back(std::move(text));
        break;
      }
    }
  }
  return out;
}

std::vector<Field> decode(std::string_view card, const Format& format,
                          DiagSink& sink, const SourceLoc& where) {
  std::vector<Field> out;
  out.reserve(static_cast<size_t>(format.field_count()));
  const BlankPolicy bp = format.blank_policy();
  size_t col = 0;
  for (const EditDescriptor& d : format.descriptors()) {
    std::string_view field;
    if (col < card.size()) {
      field = card.substr(col, static_cast<size_t>(d.width));
    }
    SourceLoc at = where;
    at.col_begin = static_cast<int>(col) + 1;
    at.col_end = static_cast<int>(col) + d.width;
    col += static_cast<size_t>(d.width);
    switch (d.kind) {
      case EditKind::kSkip:
        break;
      case EditKind::kInt:
        try {
          const long v = read_int_field(field, bp);
          if (bp == BlankPolicy::kBlankAsZero && has_interior_blank(field)) {
            try {
              const long bn = read_int_field(field, BlankPolicy::kIgnore);
              if (bn != v) {
                sink.error("E-CARD-005",
                           "interior blank reads as zero digit: '" +
                               std::string(field) + "' is " +
                               std::to_string(v) + " under FORTRAN-66, " +
                               std::to_string(bn) + " with blanks ignored",
                           at);
              }
            } catch (const Error&) {
              // The blanks-ignored reading is itself garbage; the BZ value
              // stands and there is no ambiguity to report.
            }
          }
          out.emplace_back(v);
        } catch (const Error& e) {
          sink.error("E-CARD-001", e.what(), at);
          out.emplace_back(0L);
        }
        break;
      case EditKind::kFixed:
      case EditKind::kExp:
        try {
          const double v = read_real_field(field, d.decimals, bp);
          if (bp == BlankPolicy::kBlankAsZero && has_interior_blank(field)) {
            try {
              const double bn =
                  read_real_field(field, d.decimals, BlankPolicy::kIgnore);
              if (bn != v) {
                sink.error("E-CARD-005",
                           "interior blank reads as zero digit: '" +
                               std::string(field) + "' parses as " +
                               std::to_string(v) + " under FORTRAN-66, " +
                               std::to_string(bn) + " with blanks ignored",
                           at);
              }
            } catch (const Error&) {
            }
          }
          if (!std::isfinite(v)) {
            sink.error("E-CARD-004",
                       "non-finite real field '" + std::string(field) + "'",
                       at);
            out.emplace_back(0.0);
          } else {
            out.emplace_back(v);
          }
        } catch (const Error& e) {
          sink.error("E-CARD-002", e.what(), at);
          out.emplace_back(0.0);
        }
        break;
      case EditKind::kAlpha: {
        std::string text(field);
        text.resize(static_cast<size_t>(d.width), ' ');
        out.emplace_back(std::move(text));
        break;
      }
    }
  }
  return out;
}

void encode_append(std::string& out, const std::vector<Field>& values,
                   const Format& format, std::vector<int>* overflowed) {
  FEIO_REQUIRE(static_cast<int>(values.size()) == format.field_count(),
               "value count does not match FORMAT field count");
  const size_t start = out.size();
  size_t vi = 0;
  for (const EditDescriptor& d : format.descriptors()) {
    bool fits = true;
    switch (d.kind) {
      case EditKind::kSkip:
        out.append(static_cast<size_t>(d.width), ' ');
        break;
      case EditKind::kInt: {
        const Field& f = values[vi++];
        FEIO_REQUIRE(std::holds_alternative<long>(f),
                     "integer FORMAT field needs an integer value");
        fits = append_int_field(out, std::get<long>(f), d.width);
        break;
      }
      case EditKind::kFixed:
      case EditKind::kExp: {
        const Field& f = values[vi++];
        double v = 0.0;
        if (std::holds_alternative<double>(f)) {
          v = std::get<double>(f);
        } else if (std::holds_alternative<long>(f)) {
          v = static_cast<double>(std::get<long>(f));
        } else {
          fail("real FORMAT field needs a numeric value");
        }
        fits = d.kind == EditKind::kFixed
                   ? append_fixed_field(out, v, d.width, d.decimals)
                   : append_exp_field(out, v, d.width, d.decimals,
                                      format.exp_style());
        break;
      }
      case EditKind::kAlpha: {
        const Field& f = values[vi++];
        FEIO_REQUIRE(std::holds_alternative<std::string>(f),
                     "alpha FORMAT field needs a string value");
        const std::string& text = std::get<std::string>(f);
        const size_t width = static_cast<size_t>(d.width);
        out.append(text, 0, width);
        if (text.size() < width) out.append(width - text.size(), ' ');
        break;
      }
    }
    if (!fits && overflowed) overflowed->push_back(static_cast<int>(vi) - 1);
  }
  const size_t written = out.size() - start;
  const size_t card_width = kCardWidth;
  if (written < card_width) out.append(card_width - written, ' ');
}

std::string encode(const std::vector<Field>& values, const Format& format) {
  std::string card;
  encode_append(card, values, format);
  return card;
}

CardReader::CardReader(std::istream& in, std::string deck_name)
    : in_(in), deck_name_(std::move(deck_name)) {}

std::optional<std::string> CardReader::next_card() {
  FEIO_FAULT("card.read");
  std::string line;
  while (std::getline(in_, line)) {
    ++card_number_;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty() && line.front() == '*') continue;  // comment card
    if (line.size() > kCardWidth) line.resize(kCardWidth);
    if (line.size() < kCardWidth) line.resize(kCardWidth, ' ');
    return line;
  }
  return std::nullopt;
}

std::vector<Field> CardReader::read(const Format& format) {
  auto card = next_card();
  FEIO_REQUIRE(card.has_value(), "deck ended while more cards were expected");
  try {
    return decode(*card, format);
  } catch (const Error& e) {
    fail(e.what(), "card " + std::to_string(card_number_));
  }
}

std::optional<std::vector<Field>> CardReader::try_read(const Format& format,
                                                       DiagSink& sink) {
  auto card = next_card();
  if (!card.has_value()) {
    sink.error("E-CARD-003", "deck ended while more cards were expected",
               {deck_name_, card_number_, 0, 0});
    return std::nullopt;
  }
  return decode(*card, format, sink, loc());
}

void CardWriter::write(const std::vector<Field>& values, const Format& format,
                       std::vector<int>* overflowed) {
  encode_append(text_, values, format, overflowed);
  text_ += '\n';
}

void CardWriter::write_raw(std::string_view card) {
  const std::string_view image = card.substr(0, kCardWidth);
  text_ += image;
  text_.append(kCardWidth - image.size(), ' ');
  text_ += '\n';
}

long as_int(const Field& f) {
  FEIO_REQUIRE(std::holds_alternative<long>(f), "field is not an integer");
  return std::get<long>(f);
}

double as_real(const Field& f) {
  if (std::holds_alternative<double>(f)) return std::get<double>(f);
  if (std::holds_alternative<long>(f)) {
    return static_cast<double>(std::get<long>(f));
  }
  fail("field is not numeric");
}

const std::string& as_alpha(const Field& f) {
  FEIO_REQUIRE(std::holds_alternative<std::string>(f), "field is not alpha");
  return std::get<std::string>(f);
}

}  // namespace feio::cards
