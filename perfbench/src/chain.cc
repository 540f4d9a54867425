// The CLI-chain workloads: the paper's gallery at paper scale, and the
// card-free chain on a large strip and a large plate with holes.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "feio/run_options.h"
#include "fem/solver.h"
#include "fem/stress.h"
#include "idlz/deck.h"
#include "idlz/idlz.h"
#include "idlz/listing.h"
#include "ospl/ospl.h"
#include "plot/svg.h"
#include "scenarios/pipeline_bench.h"
#include "scenarios/scenarios.h"
#include "util/trace.h"

namespace perfbench {
namespace {

using namespace feio;

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

std::string count_mismatch(const char* what, std::int64_t got,
                           std::int64_t want) {
  return std::string(what) + " " + std::to_string(got) + " != expected " +
         std::to_string(want);
}

// ---- gallery ---------------------------------------------------------------

// The 22 idealization figures through their card decks, and the 9 analysis
// figures through OSPL: `feio figures` plus the card round trip.
class Gallery final : public Chain {
 public:
  explicit Gallery(std::uint64_t seed) {
    for (scenarios::NamedCase& nc : scenarios::all_idealizations()) {
      nc.c.options.make_plots = true;
      nc.c.options.renumber_nodes = true;
      nc.c.options.punch_output = true;
      // The card-free run of the same case fixes the counts every card
      // round trip must reproduce.
      const idlz::IdlzResult direct = idlz::run(nc.c, RunOptions{});
      idlz_.push_back({idlz::write_deck({nc.c}), direct.mesh.num_nodes(),
                       direct.mesh.num_elements(),
                       static_cast<int>(direct.plots.size())});
    }
    analyses_ = {
        scenarios::fig13_analysis,  scenarios::fig13_contact_analysis,
        scenarios::fig14_analysis,  scenarios::fig14_thermal_stress_analysis,
        scenarios::fig15_analysis,  scenarios::fig16_analysis,
        scenarios::fig17_analysis,  scenarios::fig18_analysis,
        scenarios::kirsch_analysis,
    };
    analysis_counts_.assign(analyses_.size(), {-1, -1});
    order = seeded_order(size(), seed);
  }

  std::size_t size() const override {
    return idlz_.size() + analyses_.size();
  }

  void run(std::size_t i) override {
    RunOptions ro;
    ro.threads = threads_;
    if (i < idlz_.size()) {
      std::vector<idlz::IdlzCase> cases;
      {
        FEIO_TRACE_SCOPE("bench.cards.read");
        cases = idlz::read_deck_string(idlz_[i].deck);
      }
      for (const idlz::IdlzCase& c : cases) {
        {
          FEIO_TRACE_SCOPE("bench.idlz.run");
          results_.push_back(idlz::run(c, ro));
        }
        const idlz::IdlzResult& r = results_.back();
        {
          FEIO_TRACE_SCOPE("bench.idlz.listing");
          listing_ += idlz::print_listing(r);
        }
        for (const plot::PlotFile& p : r.plots) {
          FEIO_TRACE_SCOPE("bench.plot.svg");
          svgs_.push_back(plot::render_svg(p));
        }
      }
      return;
    }
    {
      FEIO_TRACE_SCOPE("bench.scenario");
      analysis_ = analyses_[i - idlz_.size()]();
    }
    for (const scenarios::FieldOutput& f : analysis_.fields) {
      {
        FEIO_TRACE_SCOPE("bench.ospl.run");
        ospl::OsplCase c;
        c.mesh = analysis_.idlz.mesh;
        c.values = f.values;
        c.title1 = analysis_.title;
        c.title2 = f.name;
        c.delta = f.suggested_delta;
        contours_.push_back(ospl::run(c, ro));
      }
      FEIO_TRACE_SCOPE("bench.plot.svg");
      svgs_.push_back(plot::render_svg(contours_.back().plot));
    }
  }

  Check check(std::size_t i) override {
    Check out;
    Digest d;
    if (i < idlz_.size()) {
      const IdlzOp& op = idlz_[i];
      if (results_.size() != 1) {
        out.failure = count_mismatch("data sets", results_.size(), 1);
      } else {
        const idlz::IdlzResult& r = results_.front();
        if (r.mesh.num_nodes() != op.nodes) {
          out.failure = count_mismatch("nodes", r.mesh.num_nodes(), op.nodes);
        } else if (r.mesh.num_elements() != op.elements) {
          out.failure = count_mismatch("elements", r.mesh.num_elements(),
                                       op.elements);
        } else if (static_cast<int>(svgs_.size()) != op.plots) {
          out.failure = count_mismatch("plots", svgs_.size(), op.plots);
        } else if (r.nodal_cards.empty() || r.element_cards.empty()) {
          out.failure = "no punched cards";
        }
        d.text(listing_);
        d.text(r.nodal_cards);
        d.text(r.element_cards);
      }
    } else {
      std::pair<int, int>& want = analysis_counts_[i - idlz_.size()];
      const mesh::TriMesh& m = analysis_.idlz.mesh;
      if (want.first < 0) want = {m.num_nodes(), m.num_elements()};
      if (m.num_nodes() != want.first) {
        out.failure = count_mismatch("nodes", m.num_nodes(), want.first);
      } else if (m.num_elements() != want.second) {
        out.failure =
            count_mismatch("elements", m.num_elements(), want.second);
      } else if (!all_finite(analysis_.displacement)) {
        out.failure = "non-finite displacement";
      } else if (contours_.size() != analysis_.fields.size()) {
        out.failure = count_mismatch("contour plots", contours_.size(),
                                     analysis_.fields.size());
      }
      d.vec2s(analysis_.displacement);
      for (const scenarios::FieldOutput& f : analysis_.fields) {
        if (out.failure.empty() && !all_finite(f.values)) {
          out.failure = "non-finite field " + f.name;
        }
        d.doubles(f.values);
      }
    }
    for (const std::string& svg : svgs_) {
      d.text(svg);
      out.svg_bytes += static_cast<std::int64_t>(svg.size());
    }
    out.digest = d.value();
    results_.clear();
    listing_.clear();
    svgs_.clear();
    contours_.clear();
    analysis_ = {};
    return out;
  }

  OpShape shape(std::size_t i) const override {
    if (i < idlz_.size()) return {idlz_[i].elements, 0};
    const std::pair<int, int>& c = analysis_counts_[i - idlz_.size()];
    return {c.second, 2 * static_cast<std::int64_t>(c.first)};
  }

 private:
  struct IdlzOp {
    std::string deck;
    int nodes = 0;
    int elements = 0;
    int plots = 0;
  };
  std::vector<IdlzOp> idlz_;
  std::vector<scenarios::AnalysisOutput (*)()> analyses_;
  // Nodes and elements of each analysis figure, fixed by its first run.
  std::vector<std::pair<int, int>> analysis_counts_;

  // Outputs of the last run().
  std::vector<idlz::IdlzResult> results_;
  std::string listing_;
  std::vector<std::string> svgs_;
  scenarios::AnalysisOutput analysis_;
  std::vector<ospl::OsplResult> contours_;
};

// ---- strip_large / plate_holes -----------------------------------------------

// The seed's only effect on a large deck: a scale and an offset of every
// shaping coordinate. Topology, renumbering and cost stay the same.
struct Perturb {
  double sx = 1.0, sy = 1.0, tx = 0.0, ty = 0.0;
  explicit Perturb(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> scale(0.95, 1.05);
    std::uniform_real_distribution<double> offset(-10.0, 10.0);
    sx = scale(rng);
    sy = scale(rng);
    tx = offset(rng);
    ty = offset(rng);
  }
  geom::Vec2 at(double x, double y) const {
    return {tx + sx * x, ty + sy * y};
  }
};

// A straight shaping line along grid row `l` of a rectangle, between grid
// columns k1 and k2, on unit cells.
idlz::ShapeLine row_line(int k1, int k2, int l, const Perturb& p) {
  idlz::ShapeLine line;
  line.k1 = k1;
  line.l1 = l;
  line.k2 = k2;
  line.l2 = l;
  line.p1 = p.at(k1 - 1, l - 1);
  line.p2 = p.at(k2 - 1, l - 1);
  return line;
}

idlz::IdlzCase strip_large_case(std::uint64_t seed) {
  idlz::IdlzCase c = scenarios::strip_case(60, 150, 10);
  const Perturb p(seed);
  for (std::size_t s = 0; s < c.subdivisions.size(); ++s) {
    const idlz::Subdivision& sub = c.subdivisions[s];
    c.shaping[s].lines = {row_line(sub.k1, sub.k2, sub.l1, p),
                          row_line(sub.k1, sub.k2, sub.l2, p)};
  }
  return c;
}

// A 104 x 104-cell plate with a 3 x 3 grid of 24 x 24-cell holes and
// 8-cell ligaments, as rectangular subdivisions: four full-width ligament
// rows, and four ligament columns in each of the three hole rows.
idlz::IdlzCase plate_holes_case(std::uint64_t seed) {
  constexpr int kLig = 8;
  constexpr int kHole = 24;
  constexpr int kHoles = 3;
  constexpr int kWidth = kHoles * kHole + (kHoles + 1) * kLig;
  const Perturb p(seed);
  idlz::IdlzCase c;
  c.title = "BENCH PLATE WITH HOLES 104X104";
  c.options.limits = idlz::Limits::unlimited();
  auto add = [&](int x0, int x1, int y0, int y1) {
    idlz::Subdivision sub;
    sub.id = static_cast<int>(c.subdivisions.size()) + 1;
    sub.k1 = x0 + 1;
    sub.k2 = x1 + 1;
    sub.l1 = y0 + 1;
    sub.l2 = y1 + 1;
    c.subdivisions.push_back(sub);
    idlz::ShapingSpec spec;
    spec.subdivision_id = sub.id;
    spec.lines = {row_line(sub.k1, sub.k2, sub.l1, p),
                  row_line(sub.k1, sub.k2, sub.l2, p)};
    c.shaping.push_back(spec);
  };
  for (int row = 0; row <= kHoles; ++row) {
    const int y0 = row * (kLig + kHole);
    add(0, kWidth, y0, y0 + kLig);
    if (row == kHoles) break;
    for (int col = 0; col <= kHoles; ++col) {
      const int x0 = col * (kLig + kHole);
      add(x0, x0 + kLig, y0 + kLig, y0 + kLig + kHole);
    }
  }
  return c;
}

// flops of an envelope LDL^T whose row d starts at column lows[d]: row d's
// entry in column j is an inner product over the columns both rows share,
// one multiply and one add each, plus the division and the D update.
double ldlt_flops(const std::vector<int>& lows) {
  double flops = 0.0;
  for (std::size_t d = 0; d < lows.size(); ++d) {
    const int lo = lows[d];
    for (int j = lo; j < static_cast<int>(d); ++j) {
      flops += 2.0 * (j - std::max(lo, lows[static_cast<std::size_t>(j)])) +
               3.0;
    }
  }
  return flops;
}

// One op: IDLZ (RCM renumbering) -> serve's canonical cantilever -> effective
// stress -> OSPL -> SVG, at the thread count set_threads() gave.
class LargeChain final : public Chain {
 public:
  LargeChain(idlz::IdlzCase c, int nodes, int elements)
      : case_(std::move(c)), nodes_(nodes), elements_(elements) {
    order = {0};
  }

  std::size_t size() const override { return 1; }

  void run(std::size_t) override {
    RunOptions ro;
    ro.threads = threads_;
    ro.ordering = OrderingChoice::kRcm;
    {
      FEIO_TRACE_SCOPE("bench.idlz.run");
      idlz_ = idlz::run(case_, ro);
    }
    {
      FEIO_TRACE_SCOPE("bench.fem.solve");
      problem_ = canonical_cantilever(idlz_.mesh);
      solution_ = fem::solve(*problem_, ro);
    }
    {
      FEIO_TRACE_SCOPE("bench.fem.stress");
      field_ = fem::nodal_field(*problem_, solution_,
                                fem::StressComponent::kEffective);
    }
    {
      FEIO_TRACE_SCOPE("bench.ospl.run");
      ospl::OsplCase oc;
      oc.mesh = idlz_.mesh;
      oc.values = field_;
      oc.title1 = case_.title;
      oc.title2 = "EFFECTIVE STRESS";
      oc.limits = ospl::OsplLimits::unlimited();
      contours_ = ospl::run(oc, ro);
    }
    FEIO_TRACE_SCOPE("bench.plot.svg");
    svg_ = plot::render_svg(contours_.plot);
  }

  Check check(std::size_t) override {
    Check out;
    const mesh::TriMesh& m = idlz_.mesh;
    if (m.num_nodes() != nodes_) {
      out.failure = count_mismatch("nodes", m.num_nodes(), nodes_);
    } else if (m.num_elements() != elements_) {
      out.failure = count_mismatch("elements", m.num_elements(), elements_);
    } else if (problem_->num_dofs() != 2 * nodes_) {
      out.failure = count_mismatch("dofs", problem_->num_dofs(), 2 * nodes_);
    } else if (static_cast<int>(solution_.displacement.size()) != nodes_) {
      out.failure = count_mismatch("displacements",
                                   solution_.displacement.size(), nodes_);
    } else if (!all_finite(solution_.displacement)) {
      out.failure = "non-finite displacement";
    } else if (!all_finite(field_)) {
      out.failure = "non-finite effective stress";
    } else if (contours_.segments.empty()) {
      out.failure = "no contour segments";
    }
    if (flops_ == 0.0) describe_solve();
    Digest d;
    d.vec2s(solution_.displacement);
    d.doubles(field_);
    d.text(svg_);
    out.digest = d.value();
    out.svg_bytes = static_cast<std::int64_t>(svg_.size());
    return out;
  }

  OpShape shape(std::size_t) const override {
    return {elements_, 2 * static_cast<std::int64_t>(nodes_)};
  }
  double factor_flops(std::size_t) const override { return flops_; }
  std::map<std::string, double> properties() const override {
    return props_;
  }

 private:
  // serve's "solve" pipeline problem: plane stress, E = 1000, nu = 0.3, the
  // minimum-x node column clamped, a unit downward load at the maximum-x
  // node (lowest index on ties).
  static std::unique_ptr<fem::StaticProblem> canonical_cantilever(
      const mesh::TriMesh& m) {
    auto p = std::make_unique<fem::StaticProblem>(m,
                                                  fem::Analysis::kPlaneStress);
    p->set_material(fem::Material::isotropic(1000.0, 0.3));
    double min_x = m.pos(0).x;
    double max_x = m.pos(0).x;
    int tip = 0;
    for (int n = 0; n < m.num_nodes(); ++n) {
      min_x = std::min(min_x, m.pos(n).x);
      if (m.pos(n).x > max_x) {
        max_x = m.pos(n).x;
        tip = n;
      }
    }
    for (int n = 0; n < m.num_nodes(); ++n) {
      if (m.pos(n).x == min_x) p->fix(n, true, true);
    }
    p->point_load(tip, {0.0, -1.0});
    return p;
  }

  // The layout the fill predictor picks, its envelope, and the computed
  // flops of the factorization that runs in it.
  void describe_solve() {
    const fem::StoragePrediction pred = fem::predict_storage(*problem_);
    std::vector<int> lows = problem_->dof_skyline_lows();
    const int hbw = problem_->dof_half_bandwidth();
    if (!pred.use_skyline) {
      for (std::size_t d = 0; d < lows.size(); ++d) {
        lows[d] = std::max(0, static_cast<int>(d) - hbw);
      }
    }
    flops_ = ldlt_flops(lows);
    props_["fem.dofs"] = problem_->num_dofs();
    props_["fem.half_bandwidth"] = hbw;
    props_["fem.envelope_ratio"] = static_cast<double>(pred.skyline_bytes) /
                                   static_cast<double>(pred.band_bytes);
    props_["fem.skyline"] = pred.use_skyline ? 1.0 : 0.0;
    props_["fem.factorize_gflop"] = flops_ * 1e-9;
  }

  idlz::IdlzCase case_;
  int nodes_;
  int elements_;
  double flops_ = 0.0;
  std::map<std::string, double> props_;

  // Outputs of the last run().
  idlz::IdlzResult idlz_;
  std::unique_ptr<fem::StaticProblem> problem_;
  fem::StaticSolution solution_;
  std::vector<double> field_;
  ospl::OsplResult contours_;
  std::string svg_;
};

}  // namespace

std::unique_ptr<Chain> make_gallery(std::uint64_t seed) {
  return std::make_unique<Gallery>(seed);
}

std::unique_ptr<Chain> make_strip_large(std::uint64_t seed) {
  // 61 x 151 grid nodes, two triangles per cell.
  return std::make_unique<LargeChain>(strip_large_case(seed), 61 * 151,
                                      2 * 60 * 150);
}

std::unique_ptr<Chain> make_plate_holes(std::uint64_t seed) {
  // 105^2 grid nodes less 23^2 interior nodes per hole; 104^2 cells less
  // 24^2 per hole, two triangles each.
  return std::make_unique<LargeChain>(plate_holes_case(seed),
                                      105 * 105 - 9 * 23 * 23,
                                      2 * (104 * 104 - 9 * 24 * 24));
}

}  // namespace perfbench
