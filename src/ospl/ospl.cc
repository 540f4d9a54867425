#include "ospl/ospl.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "mesh/topology.h"
#include "mesh/validate.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/guard.h"
#include "util/metrics.h"
#include "util/text.h"
#include "util/trace.h"

namespace feio::ospl {

OsplLimits OsplLimits::unlimited() {
  OsplLimits l;
  l.max_elements = std::numeric_limits<int>::max() / 4;
  l.max_nodes = std::numeric_limits<int>::max() / 4;
  return l;
}

std::string interval_caption(double delta) {
  // Trim trailing zeros but keep the paper's trailing point for integers.
  std::string s = "CONTOUR INTERVAL IS ";
  append_fixed(s, delta, 4);
  while (s.back() == '0') s.pop_back();
  return s;
}

namespace {

// The whole pipeline. Its boundary stage reads `topo`, the topology of
// c.mesh, building it there when the caller has none.
OsplResult run_stages(const OsplCase& c, const RunOptions& opts,
                      std::optional<mesh::Topology>& topo) {
  util::ScopedTracerInstall tracer_scope(opts.tracer);
  util::ScopedMetricsInstall metrics_scope(opts.metrics);
  util::ScopedCancel cancel_scope(opts.cancel);

  FEIO_TRACE_SPAN(run_span, "ospl.run");
  run_span.arg("title", c.title1);
  FEIO_METRIC_ADD("ospl.cases_run", 1);

  util::guard_check_dofs(c.mesh.num_nodes(), "iso-plot mesh nodes");
  FEIO_REQUIRE(c.mesh.num_nodes() > 0, "OSPL needs at least one node");
  FEIO_REQUIRE(static_cast<int>(c.values.size()) == c.mesh.num_nodes(),
               "one value per node required");
  FEIO_REQUIRE(c.mesh.num_nodes() <= c.limits.max_nodes,
               "node count exceeds the allowed " +
                   std::to_string(c.limits.max_nodes) +
                   " (Table 1 restriction)");
  FEIO_REQUIRE(c.mesh.num_elements() <= c.limits.max_elements,
               "element count exceeds the allowed " +
                   std::to_string(c.limits.max_elements) +
                   " (Table 1 restriction)");

  OsplResult r;

  // Window: user-specified zoom or the whole mesh.
  geom::BBox window = c.window;
  const bool zoomed = window.valid() && window.width() > 0.0 &&
                      window.height() > 0.0;
  if (!zoomed) window = c.mesh.bounds();

  // Range over the nodes inside the window (zooming should not let values
  // far outside the window dictate the spacing of what is visible).
  r.vmin = std::numeric_limits<double>::infinity();
  r.vmax = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < c.mesh.num_nodes(); ++i) {
    if (zoomed && !window.contains(c.mesh.pos(i))) continue;
    r.vmin = std::min(r.vmin, c.values[static_cast<size_t>(i)]);
    r.vmax = std::max(r.vmax, c.values[static_cast<size_t>(i)]);
  }
  if (!std::isfinite(r.vmin)) {  // zoom window contains no nodes
    r.vmin = *std::min_element(c.values.begin(), c.values.end());
    r.vmax = *std::max_element(c.values.begin(), c.values.end());
  }

  {
    FEIO_TRACE_SPAN(span, "ospl.interval");
    r.delta = c.delta > 0.0 ? c.delta : auto_interval(r.vmin, r.vmax);
    r.lowest = lowest_contour(r.vmin, r.delta);
    r.levels = contour_levels(r.vmin, r.vmax, r.delta);
    span.arg("levels", static_cast<std::int64_t>(r.levels.size()));
  }
  FEIO_METRIC_ADD("ospl.levels", static_cast<std::int64_t>(r.levels.size()));

  // Extract and clip contour segments.
  FEIO_CHECK_CANCEL("ospl.contours");
  {
    FEIO_TRACE_SPAN(span, "ospl.contours");
    std::vector<ContourSegment> raw =
        extract_contours(c.mesh, c.values, r.levels);
    for (ContourSegment& seg : raw) {
      if (clip_segment(window, seg)) r.segments.push_back(seg);
    }
    span.arg("segments", static_cast<std::int64_t>(r.segments.size()));
  }
  FEIO_METRIC_ADD("ospl.segments_emitted",
                  static_cast<std::int64_t>(r.segments.size()));
  if (!r.levels.empty()) {
    FEIO_METRIC_RECORD("ospl.segments_per_level",
                       static_cast<double>(r.segments.size()) /
                           static_cast<double>(r.levels.size()));
  }

  // Boundary: adjacent boundary nodes connected by straight lines.
  FEIO_CHECK_CANCEL("ospl.boundary");
  std::vector<mesh::Edge> boundary_edges;  // sorted, for place_labels
  {
    FEIO_TRACE_SPAN(span, "ospl.boundary");
    if (!topo) topo.emplace(c.mesh);
    boundary_edges.assign(topo->boundary_edges().begin(),
                          topo->boundary_edges().end());
    for (const mesh::Edge& e : boundary_edges) {
      ContourSegment seg;
      seg.a = c.mesh.pos(e.a);
      seg.b = c.mesh.pos(e.b);
      seg.edge_a = e;
      seg.edge_b = e;
      if (clip_segment(window, seg)) r.boundary.push_back(seg);
    }
    span.arg("edges", static_cast<std::int64_t>(boundary_edges.size()));
  }

  // Labels at contour-boundary intersections.
  FEIO_CHECK_CANCEL("ospl.labels");
  {
    FEIO_TRACE_SPAN(span, "ospl.labels");
    FEIO_FAULT("ospl.labels");
    r.labels = place_labels(r.segments, boundary_edges, window,
                            decimals_for_interval(r.delta));
    span.arg("accepted", static_cast<std::int64_t>(r.labels.accepted.size()));
  }
  FEIO_METRIC_ADD("ospl.labels_placed",
                  static_cast<std::int64_t>(r.labels.accepted.size()));

  // Assemble the drawing.
  FEIO_TRACE_SCOPE("ospl.plot");
  r.plot.set_title(c.title1);
  r.plot.set_subtitle(c.title2.empty()
                          ? interval_caption(r.delta)
                          : c.title2 + "   " + interval_caption(r.delta));
  for (const ContourSegment& seg : r.boundary) {
    r.plot.line(seg.a, seg.b, plot::Pen::kBoundary);
  }
  for (const ContourSegment& seg : r.segments) {
    r.plot.line(seg.a, seg.b, plot::Pen::kContour);
  }
  for (const ContourLabel& lab : r.labels.accepted) {
    r.plot.text(lab.at, lab.text, 0.9);
  }
  return r;
}

}  // namespace

OsplResult run(const OsplCase& c, const RunOptions& opts) {
  std::optional<mesh::Topology> topo;
  return run_stages(c, opts, topo);
}

std::optional<OsplResult> run_checked(const OsplCase& c, DiagSink& sink,
                                      const RunOptions& opts) {
  util::ScopedTracerInstall tracer_scope(opts.tracer);
  util::ScopedMetricsInstall metrics_scope(opts.metrics);
  util::ScopedCancel cancel_scope(opts.cancel);
  std::optional<mesh::Topology> topo;  // built by validation, reused
  {
    FEIO_TRACE_SPAN(span, "ospl.validate");
    const mesh::ValidationReport rep = mesh::validate(c.mesh, topo);
    rep.merge_into(sink);
    if (!rep.ok()) {
      sink.error("E-OSPL-005",
                 "mesh failed validation; iso-plot not produced");
      return std::nullopt;
    }
  }
  try {
    return run_stages(c, opts, topo);
  } catch (const ResourceError& e) {
    // Cancellation, admission-guard and injected-fault failures keep their
    // stable E-RES code instead of folding into the generic pipeline error.
    sink.error(e.code(), e.what());
    return std::nullopt;
  } catch (const Error& e) {
    sink.error("E-OSPL-005", e.what());
    return std::nullopt;
  } catch (const std::exception& e) {
    sink.error("E-OSPL-006", std::string("internal error: ") + e.what());
    return std::nullopt;
  }
}

}  // namespace feio::ospl
