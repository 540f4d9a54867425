#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::vec2s(const std::vector<feio::geom::Vec2>& v) {
  for (const feio::geom::Vec2& p : v) {
    bytes(&p.x, sizeof p.x);
    bytes(&p.y, sizeof p.y);
  }
}

bool all_finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

bool all_finite(const std::vector<feio::geom::Vec2>& v) {
  return std::all_of(v.begin(), v.end(), [](const feio::geom::Vec2& p) {
    return std::isfinite(p.x) && std::isfinite(p.y);
  });
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string json_value(const std::string& line, const char* key) {
  const std::string tag = std::string("\"") + key + "\": ";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  std::size_t begin = at + tag.size();
  if (line[begin] == '"') {
    const std::size_t end = line.find('"', begin + 1);
    return line.substr(begin + 1, end - begin - 1);
  }
  std::size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(begin, end - begin);
}

namespace {

struct Open {
  std::string name;
  double begin_us = 0.0;
  double child_us = 0.0;
};

}  // namespace

void TraceAgg::add_trace_json(const std::string& json, double min_begin_us) {
  std::map<std::string, std::vector<Open>> stacks;  // per thread id
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t end = json.find('\n', pos);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(pos, end - pos);
    pos = end + 1;
    // util::Tracer renders one flat event per line.
    if (line.rfind("{\"name\": ", 0) != 0) continue;
    const std::string ph = json_value(line, "ph");
    const double ts = std::strtod(json_value(line, "ts").c_str(), nullptr);
    std::vector<Open>& stack = stacks[json_value(line, "tid")];
    if (ph == "B") {
      stack.push_back({json_value(line, "name"), ts, 0.0});
    } else if (!stack.empty()) {
      const Open o = stack.back();
      stack.pop_back();
      const double dur = ts - o.begin_us;
      // A parallel chunk run by a stage's own thread is that stage's work;
      // chunks on pool threads overlap it and are not part of any layer.
      const bool chunk = o.name.rfind("parallel.", 0) == 0;
      if (!stack.empty() && !chunk) stack.back().child_us += dur;
      if (o.begin_us < min_begin_us) continue;
      SpanTotals& t = spans_[o.name];
      ++t.count;
      t.total_us += dur;
      t.self_us += dur - o.child_us;
    }
  }
}

const SpanTotals& TraceAgg::operator[](const std::string& name) const {
  static const SpanTotals kNone;
  const auto it = spans_.find(name);
  return it == spans_.end() ? kNone : it->second;
}

std::string layer_of(const std::string& span) {
  if (span == "bench.cards.read" || span == "idlz.read_deck" ||
      span == "ospl.read_deck") {
    return "cards";
  }
  if (span == "bench.idlz.run" || span == "bench.idlz.listing") return "idlz";
  if (span == "bench.fem.solve" || span == "bench.fem.stress") return "fem";
  if (span == "bench.ospl.run") return "ospl";
  if (span == "bench.plot.svg") return "plot";
  if (span == "bench.scenario") return "scenarios";
  if (span.rfind("parallel.", 0) == 0) return "parallel";
  for (const char* layer : {"idlz", "fem", "ospl"}) {
    if (span.rfind(std::string(layer) + ".", 0) == 0) return layer;
  }
  return "bench";
}

}  // namespace perfbench
