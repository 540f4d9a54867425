#include "lint/sarif.h"

#include <string>
#include <string_view>

#include "lint/rule.h"
#include "util/text.h"

namespace feio::lint {
namespace {

// SARIF levels: "error", "warning", "note".
std::string_view sarif_level(Severity s) {
  switch (s) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    default:
      return "note";
  }
}

void append_rules(std::string& out) {
  out += '[';
  bool first = true;
  for (const Rule& r : rules()) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":\"";
    out += r.code;
    out += "\",\"name\":\"";
    append_json_escaped(out, r.name);
    out += "\",\"shortDescription\":{\"text\":\"";
    append_json_escaped(out, r.summary);
    out += "\"},\"help\":{\"text\":\"";
    append_json_escaped(out, r.paper);
    out += "\"},\"defaultConfiguration\":{\"level\":\"";
    out += sarif_level(r.severity);
    out += "\"}}";
  }
  out += ']';
}

void append_result(std::string& out, const Diag& d) {
  out += "{\"ruleId\":\"";
  append_json_escaped(out, d.code);
  out += "\",\"level\":\"";
  out += sarif_level(d.severity);
  out += "\",\"message\":{\"text\":\"";
  append_json_escaped(out, d.message);
  out += "\"}";
  if (d.loc.known() && d.loc.card > 0) {
    out += ",\"locations\":[{\"physicalLocation\":{\"artifactLocation\":"
           "{\"uri\":\"";
    append_json_escaped(out, d.loc.deck);
    out += "\"},\"region\":{\"startLine\":";
    append_int(out, d.loc.card);
    if (d.loc.col_begin > 0) {
      out += ",\"startColumn\":";
      append_int(out, d.loc.col_begin);
      out += ",\"endColumn\":";
      append_int(out, d.loc.col_end + 1);
    }
    out += "}}}]";
  }
  out += '}';
}

}  // namespace

std::string render_sarif(const DiagSink& sink) {
  std::string out =
      "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":"
      "{\"name\":\"feio-lint\",\"informationUri\":"
      "\"https://example.invalid/feio\",\"rules\":";
  append_rules(out);
  out += "}},\"results\":[";
  bool first = true;
  for (const Diag& d : sink.diags()) {
    if (!first) out += ',';
    first = false;
    append_result(out, d);
  }
  out += "]}]}";
  return out;
}

}  // namespace feio::lint
