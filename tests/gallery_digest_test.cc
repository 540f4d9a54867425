// Pins what the paper's gallery produces: a committed table of FNV-1a-64
// digests over every idealization figure's listing, punched cards and plots,
// and over every analysis figure's displacement and nodal-field bits and
// OSPL plots, plus each figure's node and element counts.
//
// The table is tests/golden/gallery_digests.txt. Text rows (listing, cards,
// SVG, counts) must match on any toolchain; `field.*` rows hash raw double
// bits and are compared only when the build's toolchain line equals the
// table's. Every run writes the table it computed to
// <build>/tests/gallery_digests.t<threads>.actual; to regenerate after an
// intended output change, run this test and copy the 1-thread file over
// the golden table (and say in CHANGES.md which rows changed and why).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "digest.h"
#include "feio/run_options.h"
#include "idlz/idlz.h"
#include "idlz/listing.h"
#include "ospl/ospl.h"
#include "plot/deformed.h"
#include "plot/svg.h"
#include "scenarios/scenarios.h"
#include "util/parallel.h"

namespace feio {
namespace {

using golden::digest;
using golden::Fnv;
using golden::toolchain;

std::string digest(const std::vector<geom::Vec2>& v) {
  Fnv f;
  for (const geom::Vec2& p : v) {
    f.bytes(&p.x, sizeof p.x).bytes(&p.y, sizeof p.y);
  }
  return f.hex();
}

std::string slug(std::string s) {
  for (char& ch : s) {
    const bool keep = (ch >= 'A' && ch <= 'Z') || (ch >= 'a' && ch <= 'z') ||
                      (ch >= '0' && ch <= '9');
    if (!keep) ch = '_';
  }
  return s;
}

using Table = std::vector<std::pair<std::string, std::string>>;

// The whole gallery at `threads`, in figure order.
Table compute(int threads) {
  util::ScopedThreads scope(threads);
  RunOptions ro;
  ro.threads = threads;
  Table t;
  auto row = [&](const std::string& fig, const std::string& what,
                 std::string value) {
    t.emplace_back(fig + " " + what, std::move(value));
  };

  for (scenarios::NamedCase& nc : scenarios::all_idealizations()) {
    nc.c.options.make_plots = true;
    nc.c.options.renumber_nodes = true;
    nc.c.options.punch_output = true;
    const idlz::IdlzResult r = idlz::run(nc.c, ro);
    const std::string fig = "idlz/" + nc.id;
    row(fig, "nodes", std::to_string(r.mesh.num_nodes()));
    row(fig, "elements", std::to_string(r.mesh.num_elements()));
    row(fig, "listing", digest(idlz::print_listing(r)));
    row(fig, "cards.nodal", digest(r.nodal_cards));
    row(fig, "cards.element", digest(r.element_cards));
    for (std::size_t i = 0; i < r.plots.size(); ++i) {
      row(fig, "svg." + std::to_string(i),
          digest(plot::render_svg(r.plots[i])));
    }
  }

  const std::vector<scenarios::AnalysisOutput (*)()> analyses = {
      scenarios::fig13_analysis,  scenarios::fig13_contact_analysis,
      scenarios::fig14_analysis,  scenarios::fig14_thermal_stress_analysis,
      scenarios::fig15_analysis,  scenarios::fig16_analysis,
      scenarios::fig17_analysis,  scenarios::fig18_analysis,
      scenarios::kirsch_analysis,
  };
  for (auto* analysis : analyses) {
    const scenarios::AnalysisOutput a = analysis();
    const std::string fig = "analysis/" + a.id;
    const mesh::TriMesh& m = a.idlz.mesh;
    row(fig, "nodes", std::to_string(m.num_nodes()));
    row(fig, "elements", std::to_string(m.num_elements()));
    if (!a.displacement.empty()) {
      row(fig, "field.displacement", digest(a.displacement));
      row(fig, "svg.deformed",
          digest(plot::render_svg(
              plot::plot_deformed(m, a.displacement, a.title))));
    }
    for (const scenarios::FieldOutput& f : a.fields) {
      row(fig, "field." + slug(f.name), digest(f.values));
      ospl::OsplCase c;
      c.mesh = m;
      c.values = f.values;
      c.title1 = a.title;
      c.title2 = f.name;
      c.delta = f.suggested_delta;
      row(fig, "svg." + slug(f.name),
          digest(plot::render_svg(ospl::run(c, ro).plot)));
    }
  }
  return t;
}

std::string render(const std::string& tc, const Table& t) {
  std::ostringstream out;
  out << "# Gallery output digests (FNV-1a-64); see "
         "tests/gallery_digest_test.cc.\n"
      << "toolchain " << tc << "\n";
  for (const auto& [key, value] : t) out << key << " " << value << "\n";
  return out.str();
}

struct Golden {
  std::string toolchain;
  Table rows;
};

Golden read_golden() {
  Golden g;
  std::ifstream in(FEIO_GOLDEN_DIR "/gallery_digests.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto last = line.rfind(' ');
    if (line.rfind("toolchain ", 0) == 0) {
      g.toolchain = line.substr(10);
    } else if (last != std::string::npos) {
      g.rows.emplace_back(line.substr(0, last), line.substr(last + 1));
    }
  }
  return g;
}

void check_threads(int threads) {
  const Table got = compute(threads);
  const std::string tc = toolchain();
  {
    std::ofstream out(FEIO_DIGEST_OUT_DIR "/gallery_digests.t" +
                      std::to_string(threads) + ".actual");
    out << render(tc, got);
  }

  const Golden want = read_golden();
  ASSERT_FALSE(want.rows.empty()) << "missing or empty golden table";
  const bool same_toolchain = want.toolchain == tc;
  if (!same_toolchain) {
    std::printf("toolchain %s differs from the table's %s: field.* rows "
                "not compared\n",
                tc.c_str(), want.toolchain.c_str());
  }
  ASSERT_EQ(got.size(), want.rows.size()) << "row count changed";
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, want.rows[i].first) << "row " << i;
    const bool field = got[i].first.find(" field.") != std::string::npos;
    if (field && !same_toolchain) continue;
    EXPECT_EQ(got[i].second, want.rows[i].second) << got[i].first;
  }
}

TEST(GalleryDigestTest, MatchesTableAtOneThread) { check_threads(1); }

TEST(GalleryDigestTest, MatchesTableAtFourThreads) { check_threads(4); }

}  // namespace
}  // namespace feio
