#include "util/diag.h"

#include "util/error.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/report.h"
#include "util/text.h"

namespace feio {
namespace {

std::string plural(int n, const char* noun) {
  return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
}

}  // namespace

std::string_view severity_name(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "error";
}

std::string SourceLoc::to_string() const {
  std::string out;
  if (!deck.empty()) out = deck;
  if (card > 0) {
    if (!out.empty()) out += ": ";
    out += "card " + std::to_string(card);
    if (col_begin > 0) {
      out += ", cols " + std::to_string(col_begin);
      if (col_end > col_begin) out += "-" + std::to_string(col_end);
    }
  }
  return out;
}

std::string Diag::to_string() const {
  std::string out;
  const std::string where = loc.to_string();
  if (!where.empty()) out += where + ": ";
  out += std::string(severity_name(severity)) + " " + code + ": " + message;
  return out;
}

DiagSink::DiagSink(int cap) : cap_(cap < 1 ? 1 : cap) {}

void DiagSink::add(Diag d) {
  switch (d.severity) {
    case Severity::kError:
      FEIO_METRIC_ADD("diag.errors", 1);
      break;
    case Severity::kWarning:
      FEIO_METRIC_ADD("diag.warnings", 1);
      break;
    case Severity::kNote:
      FEIO_METRIC_ADD("diag.notes", 1);
      break;
  }
  append(std::move(d));
}

void DiagSink::append(Diag d) {
  ++counts_[static_cast<int>(d.severity)];
  if (static_cast<int>(diags_.size()) >= cap_) {
    capped_ = true;
    return;
  }
  diags_.push_back(std::move(d));
}

void DiagSink::error(std::string code, std::string message, SourceLoc loc) {
  add({Severity::kError, std::move(code), std::move(message), std::move(loc)});
}

void DiagSink::warning(std::string code, std::string message, SourceLoc loc) {
  add({Severity::kWarning, std::move(code), std::move(message),
       std::move(loc)});
}

void DiagSink::note(std::string code, std::string message, SourceLoc loc) {
  add({Severity::kNote, std::move(code), std::move(message), std::move(loc)});
}

int DiagSink::count(Severity s) const {
  return counts_[static_cast<int>(s)];
}

const Diag* DiagSink::first_error() const {
  for (const Diag& d : diags_) {
    if (d.severity == Severity::kError) return &d;
  }
  return nullptr;
}

void DiagSink::merge(const DiagSink& other) {
  int kept[3] = {0, 0, 0};
  // append(), not add(): the records were metered when first recorded, so a
  // merge must not count them into the metrics registry again.
  for (const Diag& d : other.diags_) {
    ++kept[static_cast<int>(d.severity)];
    append(d);
  }
  // Records the other sink dropped at its cap still deserve counting here.
  for (int s = 0; s < 3; ++s) counts_[s] += other.counts_[s] - kept[s];
  if (other.capped_) capped_ = true;
}

std::string DiagSink::render_text() const {
  std::string out;
  for (const Diag& d : diags_) {
    out += d.to_string();
    out += '\n';
  }
  const int ne = error_count();
  const int nw = warning_count();
  const int nn = count(Severity::kNote);
  if (ne == 0 && nw == 0 && nn == 0) {
    out += "no diagnostics.\n";
    return out;
  }
  std::string summary;
  if (ne > 0) summary += plural(ne, "error");
  if (nw > 0) summary += (summary.empty() ? "" : ", ") + plural(nw, "warning");
  if (nn > 0) summary += (summary.empty() ? "" : ", ") + plural(nn, "note");
  out += summary + ".";
  if (capped_) {
    out += " (report capped at " + std::to_string(cap_) + " diagnostics)";
  }
  out += '\n';
  return out;
}

std::string DiagSink::render_report_json(std::string_view kind) const {
  FEIO_FAULT("report.write");
  const std::string body = render_json();
  // render_json() always opens with "{\n"; splice the envelope members in
  // so the payload fields stay byte-for-byte what legacy consumers expect.
  return "{\n" + report_header_json(kind) + body.substr(2);
}

std::string DiagSink::render_json() const {
  std::string out = "{\n";
  out += ok() ? "  \"ok\": true,\n" : "  \"ok\": false,\n";
  out += "  \"errors\": ";
  append_int(out, error_count());
  out += ",\n  \"warnings\": ";
  append_int(out, warning_count());
  out += ",\n  \"notes\": ";
  append_int(out, count(Severity::kNote));
  out += capped_ ? ",\n  \"capped\": true,\n" : ",\n  \"capped\": false,\n";
  out += "  \"diagnostics\": [";
  for (size_t i = 0; i < diags_.size(); ++i) {
    const Diag& d = diags_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"severity\": \"";
    out += severity_name(d.severity);
    out += "\", \"code\": \"";
    append_json_escaped(out, d.code);
    out += "\", \"message\": \"";
    append_json_escaped(out, d.message);
    out += "\", \"deck\": \"";
    append_json_escaped(out, d.loc.deck);
    out += "\", \"card\": ";
    append_int(out, d.loc.card);
    out += ", \"colBegin\": ";
    append_int(out, d.loc.col_begin);
    out += ", \"colEnd\": ";
    append_int(out, d.loc.col_end);
    out += "}";
  }
  out += diags_.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

void DiagSink::throw_if_errors() const {
  const Diag* first = first_error();
  if (!first) return;
  std::string context;
  if (first->loc.card > 0) {
    context = "card " + std::to_string(first->loc.card);
  }
  throw Error(first->code + ": " + first->message, context);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

}  // namespace feio
