#include "ospl/labels.h"

#include <algorithm>
#include <cmath>

#include "util/text.h"

namespace feio::ospl {

int decimals_for_interval(double delta) {
  if (!(delta > 0.0)) return 0;
  int d = 0;
  double scaled = delta;
  while (d < 6 && std::abs(scaled - std::round(scaled)) > 1e-9) {
    scaled *= 10.0;
    ++d;
  }
  return d;
}

std::string format_level(double level, int decimals) {
  std::string body;
  append_fixed(body, std::abs(level), decimals);
  if (decimals == 0) {
    body += ".";
  } else if (body.size() > 1 && body.front() == '0') {
    body.erase(body.begin());  // ".50" style of the paper's unit plots
  }
  const bool zero = level == 0.0;
  return (level < 0.0 ? "-" : (zero ? "" : "+")) + body;
}

LabelResult place_labels(const std::vector<ContourSegment>& segments,
                         std::span<const mesh::Edge> boundary_edges,
                         const geom::BBox& plot_bounds, int decimals) {
  LabelResult result;
  const double diag = plot_bounds.valid()
                          ? std::hypot(plot_bounds.width(),
                                       plot_bounds.height())
                          : 1.0;
  const double min_sep = 0.05 * diag;

  std::vector<ContourLabel> candidates;
  for (const ContourSegment& seg : segments) {
    for (int end = 0; end < 2; ++end) {
      const mesh::Edge& edge = end == 0 ? seg.edge_a : seg.edge_b;
      if (edge.a < 0) continue;  // clipped end point, not on a mesh edge
      if (!std::binary_search(boundary_edges.begin(), boundary_edges.end(),
                              edge)) {
        continue;
      }
      candidates.push_back(ContourLabel{end == 0 ? seg.a : seg.b, seg.level,
                                        format_level(seg.level, decimals)});
    }
  }

  for (const ContourLabel& cand : candidates) {
    bool overlaps = false;
    for (const ContourLabel& acc : result.accepted) {
      if (geom::distance(cand.at, acc.at) < min_sep) {
        overlaps = true;
        break;
      }
    }
    // "All contours of zero value are labeled."
    if (overlaps && cand.level != 0.0) {
      ++result.suppressed;
      continue;
    }
    result.accepted.push_back(cand);
  }
  return result;
}

}  // namespace feio::ospl
