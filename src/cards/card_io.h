// Card-image reading and writing on top of the FORMAT engine.
//
// A "card" is one 80-column record. CardReader streams cards from text and
// decodes one card against a Format; CardWriter encodes values into card
// images. Both keep track of the current card number so errors can point at
// the offending card, just like a keypunch operator would want.
#pragma once

#include <istream>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "cards/format.h"
#include "util/diag.h"

namespace feio::cards {

inline constexpr int kCardWidth = 80;

// A decoded field: integers, reals, or alphanumeric payloads.
using Field = std::variant<long, double, std::string>;

// Decodes one card image against a format. Missing columns (short card)
// read as blanks, matching card-reader behaviour.
std::vector<Field> decode(std::string_view card, const Format& format);

// Recovering decode: a malformed field is reported to `sink` — with `where`
// refined to the field's column range — and read as zero (numeric) so the
// caller always gets one value per format field and can keep going.
// Non-finite reals (NAN/INF punched into a card) are likewise diagnosed and
// replaced by zero. When the format's blank policy is blank-as-zero (the
// default) and an interior blank changes the parsed value — "1 2" in I3 is
// 102 under FORTRAN-66 but 12 with blanks ignored — the field is flagged
// with E-CARD-005 (the era-faithful value is still the one returned).
// Codes: E-CARD-001 (integer), E-CARD-002 (real), E-CARD-004 (non-finite
// real), E-CARD-005 (interior blank changed the value).
std::vector<Field> decode(std::string_view card, const Format& format,
                          DiagSink& sink, const SourceLoc& where);

// Encodes values against a format into a (>= format.record_width()) card
// image, padded with blanks to kCardWidth when shorter, and appends it to
// `out` (no newline). Value/field type mismatches are converted where
// lossless (int->real) and rejected otherwise. A value too wide for its
// field is punched as asterisks; when `overflowed` is given, the value's
// 0-based index is appended to it.
void encode_append(std::string& out, const std::vector<Field>& values,
                   const Format& format,
                   std::vector<int>* overflowed = nullptr);

// The card image encode_append would append.
std::string encode(const std::vector<Field>& values, const Format& format);

// Streams card images (lines) from an input stream. Lines are truncated or
// blank-padded to 80 columns; '\r' is stripped. Lines whose first column is
// '*' are treated as comment cards and skipped (an extension over the 1970
// decks, handy for annotated fixtures).
class CardReader {
 public:
  // `deck_name` labels diagnostics ("decks/fig02.b"; defaults to "<deck>").
  explicit CardReader(std::istream& in, std::string deck_name = "<deck>");

  // Next card image, or nullopt at end of deck.
  std::optional<std::string> next_card();

  // Next card decoded against `format`; throws feio::Error (with card
  // context) when the deck ends early or a field is malformed.
  std::vector<Field> read(const Format& format);

  // Recovering read: malformed fields are reported to `sink` (with card and
  // column context) and read as zeros. Returns nullopt only when the deck
  // has ended, after reporting E-CARD-003.
  std::optional<std::vector<Field>> try_read(const Format& format,
                                             DiagSink& sink);

  // 1-based number of the most recently returned card.
  int card_number() const { return card_number_; }

  // Location of the most recently returned card.
  SourceLoc loc() const { return {deck_name_, card_number_, 0, 0}; }

 private:
  std::istream& in_;
  std::string deck_name_;
  int card_number_ = 0;
};

// Collects encoded card images, one line each, in one string; used for
// punched output and deck writing.
class CardWriter {
 public:
  // Appends one encoded card; `overflowed` as in encode_append.
  void write(const std::vector<Field>& values, const Format& format,
             std::vector<int>* overflowed = nullptr);
  // Appends `card` truncated or blank-padded to kCardWidth.
  void write_raw(std::string_view card);

  // Every card so far, each followed by a newline.
  const std::string& str() const { return text_; }

 private:
  std::string text_;
};

// Convenience accessors with checked conversion.
long as_int(const Field& f);
double as_real(const Field& f);
const std::string& as_alpha(const Field& f);

}  // namespace feio::cards
