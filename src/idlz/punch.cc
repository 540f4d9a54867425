#include "idlz/punch.h"

#include <string>
#include <vector>

#include "cards/card_io.h"
#include "cards/format_cache.h"
#include "util/error.h"
#include "util/text.h"

namespace feio::idlz {
namespace {

// Overflow bookkeeping for one value-bearing FORMAT field across a whole
// punch run: cards are punched by the hundreds, so the report aggregates to
// one E-PUNCH-001 per field rather than one per corrupt card.
struct FieldOverflow {
  int count = 0;
  int first_entity = 0;     // 1-based node/element number of first overflow
  cards::Field first_value; // the value that did not fit
};

std::string field_value_string(const cards::Field& f) {
  if (std::holds_alternative<long>(f)) {
    return std::to_string(std::get<long>(f));
  }
  if (std::holds_alternative<double>(f)) {
    std::string out;
    append_general(out, std::get<double>(f), 6);
    return out;
  }
  return std::get<std::string>(f);
}

std::string descriptor_name(const cards::EditDescriptor& d) {
  using cards::EditKind;
  switch (d.kind) {
    case EditKind::kInt:
      return "I" + std::to_string(d.width);
    case EditKind::kFixed:
      return "F" + std::to_string(d.width) + "." + std::to_string(d.decimals);
    case EditKind::kExp:
      return "E" + std::to_string(d.width) + "." + std::to_string(d.decimals);
    case EditKind::kAlpha:
      return "A" + std::to_string(d.width);
    default:
      return std::to_string(d.width) + "X";
  }
}

// Punches one card, tracking per-field overflow when `overflow` is supplied
// (one slot per value-bearing field). `bad` is reused across cards to
// collect the indices of the fields that did not fit.
void punch_card(const std::vector<cards::Field>& values,
                const cards::Format& fmt, int entity, cards::CardWriter& out,
                std::vector<FieldOverflow>* overflow, std::vector<int>& bad) {
  bad.clear();
  out.write(values, fmt, overflow ? &bad : nullptr);
  for (const int field : bad) {
    FieldOverflow& o = (*overflow)[static_cast<size_t>(field)];
    if (o.count == 0) {
      o.first_entity = entity;
      o.first_value = values[static_cast<size_t>(field)];
    }
    ++o.count;
  }
}

// One E-PUNCH-001 per overflowing field, e.g. "element number 128 does not
// fit I2 (field 4 of the element FORMAT); 29 of 128 cards punched as
// asterisks".
void report_overflow(const std::vector<FieldOverflow>& overflow,
                     const cards::Format& fmt, const char* card_kind,
                     const char* const field_names[], int total_cards,
                     DiagSink& sink, const SourceLoc& loc) {
  size_t vi = 0;
  for (const cards::EditDescriptor& d : fmt.descriptors()) {
    if (d.kind == cards::EditKind::kSkip) continue;
    const size_t field = vi++;
    const FieldOverflow& o = overflow[field];
    if (o.count == 0) continue;
    sink.error("E-PUNCH-001",
               std::string(field_names[field]) + " " +
                   field_value_string(o.first_value) + " of " + card_kind +
                   " " + std::to_string(o.first_entity) + " does not fit " +
                   descriptor_name(d) + " (field " +
                   std::to_string(field + 1) + " of the " + card_kind +
                   " FORMAT); " + std::to_string(o.count) + " of " +
                   std::to_string(total_cards) +
                   " cards punched as asterisks",
               loc);
  }
}

std::string punch_nodal(const mesh::TriMesh& mesh, const std::string& format,
                        DiagSink* sink, const SourceLoc& loc) {
  // Interned: the type-7 FORMAT is identical across cards (and, on the
  // serve path, across repeat jobs), so the parse happens once per spec.
  const auto fmt_ptr = cards::parse_format_cached(format);
  const cards::Format& fmt = *fmt_ptr;
  FEIO_REQUIRE(fmt.field_count() == 4,
               "nodal card FORMAT must carry 4 fields (X, Y, boundary, "
               "node number); got " +
                   std::to_string(fmt.field_count()));
  cards::CardWriter out;
  std::vector<FieldOverflow> overflow(4);
  std::vector<int> bad;
  std::vector<cards::Field> values(4);
  for (int i = 0; i < mesh.num_nodes(); ++i) {
    const mesh::Node& n = mesh.node(i);
    values[0] = n.pos.x;
    values[1] = n.pos.y;
    values[2] = static_cast<long>(static_cast<int>(n.boundary));
    values[3] = static_cast<long>(i + 1);
    punch_card(values, fmt, i + 1, out, sink ? &overflow : nullptr, bad);
  }
  if (sink) {
    static const char* const kNames[] = {"X coordinate", "Y coordinate",
                                         "boundary flag", "node number"};
    report_overflow(overflow, fmt, "nodal", kNames, mesh.num_nodes(), *sink,
                    loc);
  }
  return out.str();
}

std::string punch_element(const mesh::TriMesh& mesh, const std::string& format,
                          DiagSink* sink, const SourceLoc& loc) {
  const auto fmt_ptr = cards::parse_format_cached(format);
  const cards::Format& fmt = *fmt_ptr;
  FEIO_REQUIRE(fmt.field_count() == 4,
               "element card FORMAT must carry 4 fields (3 node numbers + "
               "element number); got " +
                   std::to_string(fmt.field_count()));
  cards::CardWriter out;
  std::vector<FieldOverflow> overflow(4);
  std::vector<int> bad;
  std::vector<cards::Field> values(4);
  for (int e = 0; e < mesh.num_elements(); ++e) {
    const mesh::Element& el = mesh.element(e);
    for (int k = 0; k < 3; ++k) values[k] = static_cast<long>(el.n[k] + 1);
    values[3] = static_cast<long>(e + 1);
    punch_card(values, fmt, e + 1, out, sink ? &overflow : nullptr, bad);
  }
  if (sink) {
    static const char* const kNames[] = {"node number", "node number",
                                         "node number", "element number"};
    report_overflow(overflow, fmt, "element", kNames, mesh.num_elements(),
                    *sink, loc);
  }
  return out.str();
}

}  // namespace

std::string punch_nodal_cards(const mesh::TriMesh& mesh,
                              const std::string& format) {
  return punch_nodal(mesh, format, nullptr, {});
}

std::string punch_element_cards(const mesh::TriMesh& mesh,
                                const std::string& format) {
  return punch_element(mesh, format, nullptr, {});
}

std::string punch_nodal_cards(const mesh::TriMesh& mesh,
                              const std::string& format, DiagSink& sink,
                              const SourceLoc& format_loc) {
  return punch_nodal(mesh, format, &sink, format_loc);
}

std::string punch_element_cards(const mesh::TriMesh& mesh,
                                const std::string& format, DiagSink& sink,
                                const SourceLoc& format_loc) {
  return punch_element(mesh, format, &sink, format_loc);
}

}  // namespace feio::idlz
