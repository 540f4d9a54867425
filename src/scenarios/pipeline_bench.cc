#include "scenarios/pipeline_bench.h"

#include <string>

#include "util/error.h"

namespace feio::scenarios {

idlz::IdlzCase strip_case(int k_cells, int l_cells, int subs) {
  FEIO_REQUIRE(subs >= 1 && l_cells % subs == 0,
               "subdivision count must divide the row count");
  idlz::IdlzCase c;
  c.title = "BENCH STRIP " + std::to_string(k_cells) + "X" +
            std::to_string(l_cells);
  c.options.limits = idlz::Limits::unlimited();
  const int rows_per = l_cells / subs;
  for (int s = 0; s < subs; ++s) {
    idlz::Subdivision sub;
    sub.id = s + 1;
    sub.k1 = 1;
    sub.k2 = 1 + k_cells;
    sub.l1 = 1 + s * rows_per;
    sub.l2 = 1 + (s + 1) * rows_per;
    c.subdivisions.push_back(sub);

    idlz::ShapingSpec spec;
    spec.subdivision_id = sub.id;
    auto side = [&](int l) {
      idlz::ShapeLine line;
      line.k1 = sub.k1;
      line.l1 = l;
      line.k2 = sub.k2;
      line.l2 = l;
      line.p1 = {0.0, static_cast<double>(l - 1)};
      line.p2 = {static_cast<double>(k_cells), static_cast<double>(l - 1)};
      return line;
    };
    spec.lines = {side(sub.l1), side(sub.l2)};
    c.shaping.push_back(spec);
  }
  return c;
}

}  // namespace feio::scenarios
