#include "idlz/idlz.h"

#include <algorithm>
#include <set>
#include <utility>

#include "idlz/punch.h"
#include "mesh/bandwidth.h"
#include "mesh/quality.h"
#include "mesh/validate.h"
#include "plot/mesh_plot.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/text.h"
#include "util/trace.h"

namespace feio::idlz {
namespace {

// Subdivision si's plot, drawn as plot::draw_mesh draws the part mesh of
// its elements and nodes, read from `topo`, the final mesh's topology:
// nodes numbered in list order, and each edge drawn once, at its first use
// in element order, from its lower part-local node, with the boundary pen
// when just one of its elements is in the part.
plot::PlotFile subdivision_plot(const IdlzCase& c, const IdlzResult& r,
                                size_t si, const mesh::Topology& topo) {
  plot::PlotFile p(c.title + " - SUBDIVISION " +
                   std::to_string(c.subdivisions[si].id));
  std::vector<int> local(static_cast<size_t>(r.mesh.num_nodes()), -1);
  int count = 0;
  for (int n : r.subdivision_nodes[si]) {
    if (local[static_cast<size_t>(n)] >= 0) continue;
    local[static_cast<size_t>(n)] = count++;
    p.text(r.mesh.pos(n), std::to_string(n + 1), 0.8);
  }
  const std::vector<int>& elements = r.subdivision_elements[si];  // ascending
  std::vector<char> drawn(static_cast<size_t>(topo.num_edges()), 0);
  for (int e : elements) {
    for (int id : topo.element_edges(e)) {
      if (std::exchange(drawn[static_cast<size_t>(id)], 1)) continue;
      mesh::Edge edge = topo.edges()[static_cast<size_t>(id)];
      if (local[static_cast<size_t>(edge.a)] >
          local[static_cast<size_t>(edge.b)]) {
        std::swap(edge.a, edge.b);
      }
      const auto uses = std::ranges::count_if(
          topo.edge_elements(id),
          [&](int x) { return std::ranges::binary_search(elements, x); });
      p.line(r.mesh.pos(edge.a), r.mesh.pos(edge.b),
             uses == 1 ? plot::Pen::kBoundary : plot::Pen::kMesh);
    }
  }
  return p;
}

// The whole pipeline; `topo` is left holding the final mesh's topology.
// With `punch_diags`, cards are punched through the diagnosing overloads: a
// value too wide for its user FORMAT field becomes E-PUNCH-001 there
// (pointing at the type-7 card) instead of a silently corrupt card in the
// output.
IdlzResult run_stages(const IdlzCase& c, const RunOptions& opts,
                      DiagSink* punch_diags,
                      std::optional<mesh::Topology>& topo) {
  util::ScopedTracerInstall tracer_scope(opts.tracer);
  util::ScopedMetricsInstall metrics_scope(opts.metrics);
  util::ScopedCancel cancel_scope(opts.cancel);

  FEIO_TRACE_SPAN(run_span, "idlz.run");
  run_span.arg("title", c.title);
  FEIO_METRIC_ADD("idlz.cases_run", 1);

  IdlzResult r;
  r.title = c.title;

  // 1. Number the nodes and create the elements on the integer grid.
  Assembly assembly = [&] {
    FEIO_TRACE_SPAN(span, "idlz.assemble");
    span.arg("subdivisions",
             static_cast<std::int64_t>(c.subdivisions.size()));
    return assemble(c.subdivisions, c.options.limits, c.options.diagonals);
  }();
  r.initial = assembly.mesh;
  // The initial plot needs the assembler's topology, which shaping changes.
  std::optional<mesh::Topology> initial_topo;
  if (c.options.make_plots) initial_topo = assembly.topology;
  FEIO_METRIC_ADD("idlz.nodes_numbered", assembly.mesh.num_nodes());
  FEIO_METRIC_ADD("idlz.elements_created", assembly.mesh.num_elements());

  // 2. Shape: locate every node's rectangular coordinates.
  FEIO_CHECK_CANCEL("idlz.shape");
  {
    FEIO_TRACE_SPAN(span, "idlz.shape");
    r.shaping = shape(c.subdivisions, c.shaping, assembly, c.options.limits);
    span.arg("from_cards", r.shaping.nodes_from_cards);
    span.arg("interpolated", r.shaping.nodes_interpolated);
  }
  r.before_reform = assembly.mesh;
  FEIO_METRIC_ADD("idlz.nodes_from_cards", r.shaping.nodes_from_cards);
  FEIO_METRIC_ADD("idlz.nodes_interpolated", r.shaping.nodes_interpolated);

  // 3. Reform elements with needle-like corners, where necessary: reform
  // decides each edge itself.
  FEIO_CHECK_CANCEL("idlz.reform");
  {
    FEIO_TRACE_SPAN(span, "idlz.reform");
    r.reform = reform(assembly.mesh, assembly.topology);
    span.arg("flips", r.reform.flips);
    span.arg("passes", r.reform.passes);
    span.arg("edges", r.reform.edges);
    span.arg("exact_edges", r.reform.exact_edges);
    FEIO_METRIC_ADD("idlz.elements_reformed", r.reform.flips);
  }

  // 4. Optionally renumber the nodes to ensure a narrow bandwidth.
  // opts.ordering can override the deck: kNone forces the pass off, kRcm
  // forces it on with RCM; kDeckDefault keeps the deck's NONUMB flag with
  // the better of CM and RCM (the ordering axis of the solver bench rides
  // through here).
  bool renumber_nodes = c.options.renumber_nodes;
  NumberingScheme scheme = NumberingScheme::kBest;
  switch (opts.ordering) {
    case OrderingChoice::kDeckDefault:
      break;
    case OrderingChoice::kNone:
      renumber_nodes = false;
      break;
    case OrderingChoice::kRcm:
      renumber_nodes = true;
      scheme = NumberingScheme::kReverseCuthillMcKee;
      break;
  }
  if (renumber_nodes) {
    FEIO_TRACE_SPAN(span, "idlz.renumber");
    r.renumbering = renumber(assembly.mesh, assembly.topology, scheme);
    span.arg("bandwidth_before", r.renumbering.bandwidth_before);
    span.arg("bandwidth_after", r.renumbering.bandwidth_after);
    if (r.renumbering.applied) {
      FEIO_METRIC_ADD("idlz.nodes_renumbered", assembly.mesh.num_nodes());
      const std::vector<int>& perm = r.renumbering.permutation;
      for (auto& nodes : assembly.subdivision_nodes) {
        for (int& n : nodes) n = perm[static_cast<size_t>(n)];
      }
      assembly.topology = mesh::Topology(assembly.mesh);
    }
  } else {
    r.renumbering.bandwidth_before = mesh::bandwidth(assembly.mesh);
    r.renumbering.bandwidth_after = r.renumbering.bandwidth_before;
    r.renumbering.profile_before = mesh::profile(assembly.mesh);
    r.renumbering.profile_after = r.renumbering.profile_before;
  }

  // Reform changed the connectivity the assembler's flags came from.
  const mesh::Topology& final_topo = assembly.topology;
  assembly.mesh.classify_boundary(final_topo);
  r.mesh = assembly.mesh;
  r.subdivision_nodes = assembly.subdivision_nodes;
  r.subdivision_elements = assembly.subdivision_elements;

  // 5. Data-volume accounting (claims C1/C2).
  r.volume.input_values = count_input_values(c.subdivisions, c.shaping);
  r.volume.output_values =
      count_output_values(r.mesh.num_nodes(), r.mesh.num_elements());
  for (int i = 0; i < r.mesh.num_nodes(); ++i) {
    if (r.mesh.node(i).boundary != mesh::BoundaryKind::kInterior) {
      ++r.volume.boundary_nodes;
    }
  }
  std::set<std::pair<int, int>> card_ends;
  for (const ShapingSpec& sp : c.shaping) {
    for (const ShapeLine& line : sp.lines) {
      card_ends.insert({line.k1, line.l1});
      card_ends.insert({line.k2, line.l2});
      if (line.radius != 0.0) ++r.volume.arcs_used;
    }
  }
  r.volume.located_coordinates = static_cast<int>(card_ends.size());

  // 6. Optional plots (Figure 11): initial, final, per-subdivision numbered.
  FEIO_CHECK_CANCEL("idlz.plots");
  if (c.options.make_plots) {
    FEIO_TRACE_SPAN(span, "idlz.plots");
    r.plots.push_back(plot::plot_mesh(r.initial, *initial_topo,
                                      c.title + " - INITIAL REPRESENTATION"));
    r.plots.push_back(plot::plot_mesh(r.mesh, final_topo,
                                      c.title + " - FINAL IDEALIZATION"));
    for (size_t si = 0; si < c.subdivisions.size(); ++si) {
      r.plots.push_back(subdivision_plot(c, r, si, final_topo));
    }
    span.arg("plots", static_cast<std::int64_t>(r.plots.size()));
  }

  // 7. Optional punched output.
  FEIO_CHECK_CANCEL("idlz.punch");
  if (c.options.punch_output) {
    FEIO_TRACE_SPAN(span, "idlz.punch");
    FEIO_FAULT("idlz.punch");
    if (punch_diags == nullptr) {
      r.nodal_cards = punch_nodal_cards(r.mesh, c.options.nodal_format);
      r.element_cards = punch_element_cards(r.mesh, c.options.element_format);
    } else {
      r.nodal_cards = punch_nodal_cards(
          r.mesh, c.options.nodal_format, *punch_diags,
          {c.deck_name, c.options.nodal_format_card, 0, 0});
      r.element_cards = punch_element_cards(
          r.mesh, c.options.element_format, *punch_diags,
          {c.deck_name, c.options.element_format_card, 0, 0});
    }
    FEIO_METRIC_ADD("idlz.cards_punched",
                    r.mesh.num_nodes() + r.mesh.num_elements());
  }
  topo = std::move(assembly.topology);
  return r;
}

}  // namespace

IdlzResult run(const IdlzCase& c, const RunOptions& opts) {
  std::optional<mesh::Topology> topo;
  return run_stages(c, opts, nullptr, topo);
}

std::optional<IdlzResult> run_checked(const IdlzCase& c, DiagSink& sink,
                                      const RunOptions& opts) {
  util::ScopedTracerInstall tracer_scope(opts.tracer);
  util::ScopedMetricsInstall metrics_scope(opts.metrics);
  util::ScopedCancel cancel_scope(opts.cancel);
  const std::string prefix =
      c.title.empty() ? std::string() : "set '" + c.title + "': ";
  try {
    DiagSink punch_diags;
    std::optional<mesh::Topology> topo;
    IdlzResult r = run_stages(c, opts, &punch_diags, topo);
    {
      FEIO_TRACE_SPAN(span, "idlz.validate");
      mesh::validate(r.mesh, topo).merge_into(sink);
    }
    // Validation findings come first in the report, then the punch's.
    sink.merge(punch_diags);
    return r;
  } catch (const ResourceError& e) {
    // Cancellation, admission-guard and injected-fault failures keep their
    // stable E-RES code instead of folding into the generic pipeline error.
    sink.error(e.code(), prefix + e.what());
    return std::nullopt;
  } catch (const Error& e) {
    sink.error("E-IDLZ-006", prefix + e.what());
    return std::nullopt;
  } catch (const std::exception& e) {
    // Anything but feio::Error is a bug, but a check run should still end
    // with a report rather than a dead process.
    sink.error("E-IDLZ-007", prefix + "internal error: " + e.what());
    return std::nullopt;
  }
}

std::string summarize(const IdlzResult& r) {
  const mesh::QualitySummary q = mesh::summarize_quality(r.mesh);
  std::string out = "IDLZ  ";
  out += r.title;
  out += '\n';
  const auto row = [&](const char* label, long long value) {
    out += label;
    append_int(out, value);
    out += '\n';
  };
  row("  nodes ............... ", r.mesh.num_nodes());
  row("  elements ............ ", r.mesh.num_elements());
  row("  boundary nodes ...... ", r.volume.boundary_nodes);
  row("  located by cards .... ", r.shaping.nodes_from_cards);
  row("  interpolated ........ ", r.shaping.nodes_interpolated);
  row("  reform flips ........ ", r.reform.flips);
  out += "  bandwidth ........... ";
  append_int(out, r.renumbering.bandwidth_before);
  row(" -> ", r.renumbering.bandwidth_after);
  out += "  min angle (deg) ..... ";
  append_fixed(out, q.min_angle_rad * 57.29578, 1);
  out += '\n';
  row("  input data values ... ", r.volume.input_values);
  row("  output data values .. ", r.volume.output_values);
  out += "  input/output ........ ";
  append_fixed(out, 100.0 * r.volume.input_fraction(), 2);
  out += "%\n";
  return out;
}

}  // namespace feio::idlz
