#include "idlz/idlz.h"

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

// The whole pipeline. With `punch_diags`, cards are punched through the
// diagnosing overloads: a value too wide for its user FORMAT field becomes
// E-PUNCH-001 there (pointing at the type-7 card) instead of a silently
// corrupt card in the output.
IdlzResult run_stages(const IdlzCase& c, const RunOptions& opts,
                      DiagSink* punch_diags) {
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

  // 3. Reform elements with needle-like corners.
  FEIO_CHECK_CANCEL("idlz.reform");
  if (c.options.reform_elements) {
    FEIO_TRACE_SPAN(span, "idlz.reform");
    r.reform = reform(assembly.mesh);
    span.arg("flips", r.reform.flips);
    span.arg("passes", r.reform.passes);
    FEIO_METRIC_ADD("idlz.elements_reformed", r.reform.flips);
  }

  // 4. Optionally renumber the nodes to ensure a narrow bandwidth.
  // opts.ordering can override the deck: kNone forces the pass off, kRcm
  // forces it on with RCM; kDeckDefault keeps the deck's NONUMB flag and
  // scheme (the ordering axis of the solver bench rides through here).
  bool renumber_nodes = c.options.renumber_nodes;
  NumberingScheme scheme = c.options.scheme;
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
    r.renumbering = renumber(assembly.mesh, scheme);
    span.arg("bandwidth_before", r.renumbering.bandwidth_before);
    span.arg("bandwidth_after", r.renumbering.bandwidth_after);
    if (r.renumbering.applied) {
      FEIO_METRIC_ADD("idlz.nodes_renumbered", assembly.mesh.num_nodes());
      const std::vector<int>& perm = r.renumbering.permutation;
      for (auto& nodes : assembly.subdivision_nodes) {
        for (int& n : nodes) n = perm[static_cast<size_t>(n)];
      }
    }
  } else {
    r.renumbering.bandwidth_before = mesh::bandwidth(assembly.mesh);
    r.renumbering.bandwidth_after = r.renumbering.bandwidth_before;
    r.renumbering.profile_before = mesh::profile(assembly.mesh);
    r.renumbering.profile_after = r.renumbering.profile_before;
  }

  assembly.mesh.classify_boundary();
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
  if (c.options.make_plots && opts.make_plots) {
    FEIO_TRACE_SPAN(span, "idlz.plots");
    r.plots.push_back(
        plot::plot_mesh(r.initial, c.title + " - INITIAL REPRESENTATION"));
    r.plots.push_back(
        plot::plot_mesh(r.mesh, c.title + " - FINAL IDEALIZATION"));
    for (size_t si = 0; si < c.subdivisions.size(); ++si) {
      plot::PlotFile p(c.title + " - SUBDIVISION " +
                       std::to_string(c.subdivisions[si].id));
      // Draw only this subdivision's elements, nodes numbered.
      mesh::TriMesh part;
      std::vector<int> remap(static_cast<size_t>(r.mesh.num_nodes()), -1);
      for (int n : r.subdivision_nodes[si]) {
        if (remap[static_cast<size_t>(n)] < 0) {
          remap[static_cast<size_t>(n)] =
              part.add_node(r.mesh.pos(n), r.mesh.node(n).boundary);
          p.text(r.mesh.pos(n), std::to_string(n + 1), 0.8);
        }
      }
      for (int e : r.subdivision_elements[si]) {
        const mesh::Element& el = r.mesh.element(e);
        part.add_element(remap[static_cast<size_t>(el.n[0])],
                         remap[static_cast<size_t>(el.n[1])],
                         remap[static_cast<size_t>(el.n[2])]);
      }
      plot::draw_mesh(part, p);
      r.plots.push_back(std::move(p));
    }
    span.arg("plots", static_cast<std::int64_t>(r.plots.size()));
  }

  // 7. Optional punched output.
  FEIO_CHECK_CANCEL("idlz.punch");
  if (c.options.punch_output && opts.punch) {
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
  return r;
}

}  // namespace

IdlzResult run(const IdlzCase& c, const RunOptions& opts) {
  return run_stages(c, opts, nullptr);
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
    IdlzResult r = run_stages(c, opts, &punch_diags);
    if (opts.validate_mesh) {
      FEIO_TRACE_SPAN(span, "idlz.validate");
      mesh::validate(r.mesh).merge_into(sink);
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
