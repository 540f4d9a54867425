// L-FMT-*: a static checker for the user-supplied FORTRAN punch FORMATs
// (type-7 cards). These are the paper's chaining contract: IDLZ punches
// nodal and element cards in the user's FORMAT and the downstream analysis
// program reads them back — a FORMAT whose I3 node-number field overflows at
// 1200 nodes corrupts every card silently, which is exactly the class of
// wasted run the paper built IDLZ to prevent.
#include <string>
#include <vector>

#include "cards/card_io.h"
#include "cards/format.h"
#include "geom/polygon.h"
#include "lint/lint.h"
#include "util/error.h"

namespace feio::lint {
namespace {

using cards::EditDescriptor;
using cards::EditKind;

std::string descriptor_name(const EditDescriptor& d) {
  std::string out;
  if (d.kind == EditKind::kSkip) {
    out = std::to_string(d.width);
    out.push_back('X');
    return out;
  }
  switch (d.kind) {
    case EditKind::kInt:
      out.push_back('I');
      break;
    case EditKind::kFixed:
      out.push_back('F');
      break;
    case EditKind::kExp:
      out.push_back('E');
      break;
    default:
      out.push_back('A');
      break;
  }
  out += std::to_string(d.width);
  if (d.kind == EditKind::kFixed || d.kind == EditKind::kExp) {
    out.push_back('.');
    out += std::to_string(d.decimals);
  }
  return out;
}

bool is_real(const EditDescriptor& d) {
  return d.kind == EditKind::kFixed || d.kind == EditKind::kExp;
}

bool real_fits(double v, const EditDescriptor& d) {
  return d.kind == EditKind::kFixed
             ? cards::fixed_field_fits(v, d.width, d.decimals)
             : cards::exp_field_fits(v, d.width, d.decimals);
}

struct FormatCard {
  const char* which;  // "nodal" / "element"
  const std::string* spec;
  int card;
};

// The value-bearing descriptors, in order.
std::vector<EditDescriptor> value_fields(const cards::Format& fmt) {
  std::vector<EditDescriptor> out;
  for (const EditDescriptor& d : fmt.descriptors()) {
    if (d.kind != EditKind::kSkip) out.push_back(d);
  }
  return out;
}

void check_int_width(const EditDescriptor& d, int field_index, long max_value,
                     const char* what, const FormatCard& f,
                     const SourceLoc& loc, DiagSink& sink) {
  if (d.kind != EditKind::kInt) return;  // type problems reported separately
  if (cards::int_field_fits(max_value, d.width)) return;
  sink.error("L-FMT-004",
             std::string(f.which) + " FORMAT field " +
                 std::to_string(field_index + 1) + " (" + descriptor_name(d) +
                 ") overflows: this idealization punches " + what +
                 " up to " + std::to_string(max_value),
             loc);
}

void lint_one_format(const FormatCard& f, bool nodal,
                     const mesh::TriMesh* mesh, DiagSink& sink,
                     const std::string& deck_name) {
  const SourceLoc loc{deck_name, f.card, 0, 0};
  cards::Format fmt;
  try {
    fmt = cards::Format::parse(*f.spec);
  } catch (const Error& e) {
    // Unreachable via the deck reader (bad FORMATs were already replaced by
    // the default and reported E-FMT-001), but programmatic cases can carry
    // anything.
    sink.error("E-FMT-001",
               std::string(e.what()) + " in user FORMAT '" + *f.spec + "'",
               loc);
    return;
  }

  const std::vector<EditDescriptor> fields = value_fields(fmt);
  if (fields.size() != 4) {
    sink.error("L-FMT-001",
               std::string(f.which) + " FORMAT '" + *f.spec + "' carries " +
                   std::to_string(fields.size()) +
                   " value fields; punch needs exactly 4 (" +
                   (nodal ? "X, Y, boundary flag, node number"
                          : "3 node numbers and the element number") +
                   ")",
               loc);
    return;  // the per-field rules assume the 4-field layout
  }

  // L-FMT-002: field/datum type compatibility. The first two nodal fields
  // carry real coordinates and must be F or E; every count field must be I
  // (a real descriptor still punches, but the downstream program's I fields
  // will not read it back; an A descriptor aborts the punch).
  for (size_t i = 0; i < 4; ++i) {
    const EditDescriptor& d = fields[i];
    const bool wants_real = nodal && i < 2;
    if (wants_real && !is_real(d)) {
      sink.error("L-FMT-002",
                 std::string(f.which) + " FORMAT field " +
                     std::to_string(i + 1) + " carries a coordinate and "
                     "must be an F or E descriptor; got " +
                     descriptor_name(d),
                 loc);
    } else if (!wants_real && d.kind == EditKind::kAlpha) {
      sink.error("L-FMT-002",
                 std::string(f.which) + " FORMAT field " +
                     std::to_string(i + 1) +
                     " carries an integer and cannot be " +
                     descriptor_name(d),
                 loc);
    } else if (!wants_real && is_real(d)) {
      sink.warning("L-FMT-002",
                   std::string(f.which) + " FORMAT field " +
                       std::to_string(i + 1) +
                       " punches an integer through " + descriptor_name(d) +
                       "; the analysis program's I field will not read it "
                       "back",
                   loc);
    }
  }

  // L-FMT-003: one pass over the FORMAT must fit an 80-column card.
  if (fmt.record_width() > cards::kCardWidth) {
    sink.error("L-FMT-003",
               std::string(f.which) + " FORMAT '" + *f.spec + "' spans " +
                   std::to_string(fmt.record_width()) +
                   " columns; a card has " +
                   std::to_string(cards::kCardWidth),
               loc);
  }

  // Width rules need the actual idealization.
  if (!mesh) return;
  const long nn = mesh->num_nodes();
  const long ne = mesh->num_elements();
  if (nodal) {
    check_int_width(fields[2], 2, 2, "boundary flags", f, loc, sink);
    check_int_width(fields[3], 3, nn, "node numbers", f, loc, sink);
    // L-FMT-005: the coordinate extremes must survive their F/E fields.
    if (nn > 0) {
      const geom::BBox b = mesh->bounds();
      const double xs[2] = {b.lo.x, b.hi.x};
      const double ys[2] = {b.lo.y, b.hi.y};
      for (size_t i = 0; i < 2; ++i) {
        const EditDescriptor& d = fields[i];
        if (!is_real(d)) continue;
        const double* extremes = i == 0 ? xs : ys;
        for (int k = 0; k < 2; ++k) {
          if (real_fits(extremes[k], d)) continue;
          sink.warning("L-FMT-005",
                       std::string(f.which) + " FORMAT field " +
                           std::to_string(i + 1) + " (" +
                           descriptor_name(d) + ") cannot represent the " +
                           (i == 0 ? "X" : "Y") + " extreme " +
                           std::to_string(extremes[k]) +
                           "; cards would be punched as asterisks",
                       loc);
          break;
        }
      }
    }
  } else {
    for (int i = 0; i < 3; ++i) {
      check_int_width(fields[static_cast<size_t>(i)], i, nn, "node numbers",
                      f, loc, sink);
    }
    check_int_width(fields[3], 3, ne, "element numbers", f, loc, sink);
  }
}

}  // namespace

void lint_formats(const idlz::IdlzCase& c, const mesh::TriMesh* final_mesh,
                  DiagSink& sink) {
  // Only punched decks care about the FORMAT cards, but a wrong FORMAT is
  // latent damage either way; the rules run unconditionally and the punch
  // option merely sharpens severity-relevant context in the docs.
  lint_one_format(
      {"nodal", &c.options.nodal_format, c.options.nodal_format_card}, true,
      final_mesh, sink, c.deck_name);
  lint_one_format(
      {"element", &c.options.element_format, c.options.element_format_card},
      false, final_mesh, sink, c.deck_name);
}

}  // namespace feio::lint
