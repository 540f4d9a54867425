// FORTRAN FORMAT engine for fixed-column card decks.
//
// IDLZ reads its seven card types with FORMATs such as (4I5), (12A6) and
// (4I5,5F8.4); OSPL reads (2I5,5F10.4) and (2F9.5,22X,F10.3,I1); and IDLZ
// punches its output in a FORMAT supplied *as data* by the user (card type
// 7), e.g. (2F9.5,51X,I3,5X,I3). Reproducing that behaviour requires an
// actual runtime FORMAT interpreter, which this module provides for the
// edit descriptors the decks use: Iw, Fw.d, Ew.d, Aw, nX, with repeat
// counts on I/F/E/A and one level of parenthesized repeat groups such as
// 2(I5,F10.2).
//
// FORTRAN blank-field semantics are honoured on input: an all-blank numeric
// field reads as zero, an F field without an explicit decimal point has the
// point implied `d` digits from the right, and — era-faithfully — every
// blank after the first nonblank character of a numeric field is a zero
// digit (FORTRAN-66 BZ editing: "1 2" under I3 is 102, not 12). Callers
// that want the modern BN behaviour (blanks ignored) opt out per Format or
// per field read via BlankPolicy.
//
// On output, Ew.d punches the normalized FORTRAN form 0.dddE+ee (leading
// zero dropped when the width is one column short), not the C printf form
// d.ddE+ee; ExpStyle::kC restores the printf form for decks destined for
// C/C++ readers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace feio::cards {

enum class EditKind {
  kInt,    // Iw
  kFixed,  // Fw.d
  kExp,    // Ew.d
  kAlpha,  // Aw
  kSkip,   // nX
};

// How blanks inside a numeric input field are read.
enum class BlankPolicy {
  // FORTRAN-66 (the paper's era): every blank after the first nonblank
  // character of the field is a zero digit; leading blanks are padding.
  // "1 2" in I3 reads as 102, "12 " reads as 120.
  kBlankAsZero,
  // Modern BN editing: blanks are ignored wherever they appear. "1 2" in
  // I3 reads as 12.
  kIgnore,
};

// How Ew.d output fields are rendered.
enum class ExpStyle {
  kFortran,  // normalized "0.dddE+ee" (FORTRAN punch form; the default)
  kC,        // "d.ddE+ee" (C printf %E, the pre-0.5 behaviour)
};

// Diagnostic code for degenerate FORMAT descriptors: zero repeat counts
// ("0I5", "0(I5,F10.2)"), zero widths ("I0", "A0", "F0.2"), and "0X". Under
// FORTRAN rules these either silently contribute no fields or occupy no
// columns, shifting every later field left of where the deck author expects
// it — exactly the class of quiet misalignment this library refuses.
// Format::parse throws feio::ResourceError carrying this code so deck
// readers can surface the precise diagnostic (plain malformed FORMATs keep
// throwing feio::Error and are reported as E-FMT-001).
inline constexpr const char kCodeCardDegenerateFormat[] = "E-CARD-006";

struct EditDescriptor {
  EditKind kind = EditKind::kSkip;
  int width = 0;     // field width (the skip count for nX)
  int decimals = 0;  // d for Fw.d / Ew.d
};

// A parsed FORMAT: descriptors in order with repeat counts expanded.
class Format {
 public:
  // Parses a FORMAT specification, with or without enclosing parentheses,
  // case-insensitive, ignoring blanks: "(2F9.5, 51X, I3, 5X, I3)". One
  // level of parenthesized repeat groups is supported ("2(I5,F10.2)");
  // deeper nesting gets an actionable diagnostic. Throws feio::Error on
  // malformed input.
  static Format parse(std::string_view spec);

  const std::vector<EditDescriptor>& descriptors() const { return items_; }

  // Number of value-bearing descriptors (everything except nX).
  int field_count() const;

  // Total card columns consumed by one pass over the format.
  int record_width() const;

  // Canonical text form, e.g. "(2F9.5,51X,I3,5X,I3)" (repeats re-collapsed
  // only where adjacent descriptors are identical; groups are flattened).
  std::string to_string() const;

  // Field-semantics knobs applied by decode()/encode() (card_io). Both
  // default era-faithful; the setters return *this for chaining.
  BlankPolicy blank_policy() const { return blank_policy_; }
  Format& set_blank_policy(BlankPolicy p) {
    blank_policy_ = p;
    return *this;
  }
  ExpStyle exp_style() const { return exp_style_; }
  Format& set_exp_style(ExpStyle s) {
    exp_style_ = s;
    return *this;
  }

 private:
  std::vector<EditDescriptor> items_;
  BlankPolicy blank_policy_ = BlankPolicy::kBlankAsZero;
  ExpStyle exp_style_ = ExpStyle::kFortran;
};

// --- Field-level reading -------------------------------------------------

// Reads an integer from a fixed-width field. Blank => 0. Blanks after the
// first nonblank character follow `policy` (era-faithful blank-as-zero by
// default). Throws on non-numeric garbage.
long read_int_field(std::string_view field,
                    BlankPolicy policy = BlankPolicy::kBlankAsZero);

// Reads a real from a fixed-width field with implied decimal count `d`.
// Blank => 0.0. Accepts F and E forms; interior blanks follow `policy`.
// Throws on garbage.
double read_real_field(std::string_view field, int implied_decimals,
                       BlankPolicy policy = BlankPolicy::kBlankAsZero);

// --- Field-level writing -------------------------------------------------

// Appends the right-justified image of a value in `width` columns to `out`
// and returns true; when the value does not fit, appends `width` asterisks
// instead (the FORTRAN overflow convention) and returns false. One
// rendering of the number serves both the fit check and the image.
// Ew.d under ExpStyle::kFortran punches the normalized 0.dddE+ee form (the
// leading zero is dropped when the field is exactly one column too narrow
// for it, as the era's punches did); ExpStyle::kC keeps the C d.ddE+ee form.
bool append_int_field(std::string& out, long value, int width);
bool append_fixed_field(std::string& out, double value, int width,
                        int decimals);
bool append_exp_field(std::string& out, double value, int width, int decimals,
                      ExpStyle style = ExpStyle::kFortran);

// Whether a value can be written into its field without overflowing to
// asterisks. Exposed so the lint FORMAT checker can predict overflow before
// a single corrupt card is emitted.
bool int_field_fits(long value, int width);
bool fixed_field_fits(double value, int width, int decimals);
bool exp_field_fits(double value, int width, int decimals,
                    ExpStyle style = ExpStyle::kFortran);

// The field images of the append_*_field functions as strings.
std::string write_int_field(long value, int width);
std::string write_fixed_field(double value, int width, int decimals);
std::string write_exp_field(double value, int width, int decimals,
                            ExpStyle style = ExpStyle::kFortran);

// Aw output: left-justified, truncated to width.
std::string write_alpha_field(std::string_view value, int width);

}  // namespace feio::cards
