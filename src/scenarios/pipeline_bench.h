// The synthetic strip assemblage the benchmarks and the parallel
// determinism tests idealize at sizes up to the paper's 40 x 60 grid limit
// and beyond (via idlz::Limits::unlimited()).
#pragma once

#include "idlz/idlz.h"

namespace feio::scenarios {

// A synthetic strip assemblage: `subs` stacked rectangular subdivisions
// covering a k_cells x l_cells integer grid, shaped to a uniform physical
// grid. k_cells = 40, l_cells = 60 is the Table 2 limit; larger sizes need
// idlz::Limits::unlimited(), which the case sets.
idlz::IdlzCase strip_case(int k_cells, int l_cells, int subs);

}  // namespace feio::scenarios
