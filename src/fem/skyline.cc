#include "fem/skyline.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "util/cancel.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/guard.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace feio::fem {
namespace {

// Panel inner products run over whole blocks of kLanes terms: lane q sums
// the terms k = q (mod kLanes) in ascending k, and the lanes combine in a
// fixed tree. Panel rows are zero-padded on both sides, so a range may
// start at any lane boundary at or below its first non-zero term — the
// extra terms add exact zeros — and an entry's value depends only on the
// data, never on which rows share a tile.
constexpr int kLanes = 4;

int floor_lanes(int k) { return k - k % kLanes; }
int round_up_lanes(int k) { return floor_lanes(k + kLanes - 1); }

// Two IEEE lanes (a GCC/Clang vector extension: element-wise arithmetic,
// one SSE2 register); two of them carry a block's four lane sums.
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

double lane_sum(Pair lo, Pair hi) { return (lo[0] + lo[1]) + (hi[0] + hi[1]); }

double panel_dot(const double* a, const double* b, int k0, int k1) {
  Pair lo = {};
  Pair hi = {};
  for (int k = k0; k < k1; k += kLanes) {
    lo += load_pair(a + k) * load_pair(b + k);
    hi += load_pair(a + k + 2) * load_pair(b + k + 2);
  }
  return lane_sum(lo, hi);
}

// The tiles below compute several panel_dots at once, sharing loads. Each
// result is bit-identical to its panel_dot. Every lane sum is a named
// local: GCC at -O2 does not unroll a `for (t < 4)` loop over an array of
// sums, which leaves the array on the stack and turns every multiply-add
// into a load-add-store.

// panel_dot(a, b[t], k0, k1) for t < 4, sharing the loads of `a`.
void panel_dot4(const double* a, const double* const b[4], int k0, int k1,
                double out[4]) {
  const double* b0 = b[0];
  const double* b1 = b[1];
  const double* b2 = b[2];
  const double* b3 = b[3];
  Pair lo0 = {}, hi0 = {}, lo1 = {}, hi1 = {};
  Pair lo2 = {}, hi2 = {}, lo3 = {}, hi3 = {};
  for (int k = k0; k < k1; k += kLanes) {
    const Pair alo = load_pair(a + k);
    const Pair ahi = load_pair(a + k + 2);
    lo0 += alo * load_pair(b0 + k);
    hi0 += ahi * load_pair(b0 + k + 2);
    lo1 += alo * load_pair(b1 + k);
    hi1 += ahi * load_pair(b1 + k + 2);
    lo2 += alo * load_pair(b2 + k);
    hi2 += ahi * load_pair(b2 + k + 2);
    lo3 += alo * load_pair(b3 + k);
    hi3 += ahi * load_pair(b3 + k + 2);
  }
  out[0] = lane_sum(lo0, hi0);
  out[1] = lane_sum(lo1, hi1);
  out[2] = lane_sum(lo2, hi2);
  out[3] = lane_sum(lo3, hi3);
}

// panel_dot(a[r], b[c], k0, k1) for r, c < 2 into out[2 r + c]: a 2x2
// register tile, one load per multiply-add (panel_dot4 needs 1.25).
void panel_dot2x2(const double* a0, const double* a1, const double* b0,
                  const double* b1, int k0, int k1, double out[4]) {
  Pair lo00 = {}, hi00 = {}, lo01 = {}, hi01 = {};
  Pair lo10 = {}, hi10 = {}, lo11 = {}, hi11 = {};
  for (int k = k0; k < k1; k += kLanes) {
    const Pair a0lo = load_pair(a0 + k);
    const Pair a0hi = load_pair(a0 + k + 2);
    const Pair a1lo = load_pair(a1 + k);
    const Pair a1hi = load_pair(a1 + k + 2);
    const Pair b0lo = load_pair(b0 + k);
    const Pair b0hi = load_pair(b0 + k + 2);
    lo00 += a0lo * b0lo;
    hi00 += a0hi * b0hi;
    lo10 += a1lo * b0lo;
    hi10 += a1hi * b0hi;
    const Pair b1lo = load_pair(b1 + k);
    const Pair b1hi = load_pair(b1 + k + 2);
    lo01 += a0lo * b1lo;
    hi01 += a0hi * b1hi;
    lo11 += a1lo * b1lo;
    hi11 += a1hi * b1hi;
  }
  out[0] = lane_sum(lo00, hi00);
  out[1] = lane_sum(lo01, hi01);
  out[2] = lane_sum(lo10, hi10);
  out[3] = lane_sum(lo11, hi11);
}

}  // namespace

SkylineMatrix::SkylineMatrix(std::vector<int> column_lows)
    : n_(static_cast<int>(column_lows.size())), low_(std::move(column_lows)) {
  FEIO_REQUIRE(n_ >= 1, "matrix size must be positive");
  start_.resize(static_cast<std::size_t>(n_) + 1, 0);
  std::int64_t entries = 0;
  for (int i = 0; i < n_; ++i) {
    const int lo = low_[static_cast<std::size_t>(i)];
    FEIO_REQUIRE(lo >= 0 && lo <= i,
                 "skyline column low out of range at row " + std::to_string(i));
    start_[static_cast<std::size_t>(i)] = entries;
    entries += i - lo + 1;
    max_height_ = std::max(max_height_, i - lo + 1);
  }
  start_[static_cast<std::size_t>(n_)] = entries;
  // Guard before the one big allocation of the solve, through the
  // overflow-checked byte estimate, so a huge envelope trips E-RES-003
  // instead of wrapping past the limit.
  util::guard_check_factor_bytes(util::checked_skyline_bytes(entries),
                                 "skyline factor storage bytes");
  FEIO_FAULT("fem.alloc");
  sky_.assign(static_cast<std::size_t>(entries), 0.0);
}

SkylineMatrix SkylineMatrix::adopt_factor(std::vector<int> column_lows,
                                          std::vector<double> values) {
  SkylineMatrix m(std::move(column_lows));
  FEIO_ASSERT(values.size() == m.sky_.size());
  m.sky_ = std::move(values);
  m.factorized_ = true;
  return m;
}

double SkylineMatrix::get(int i, int j) const {
  if (i < j) std::swap(i, j);
  if (j < low_[static_cast<std::size_t>(i)]) return 0.0;
  return slot(i, j);
}

void SkylineMatrix::set(int i, int j, double v) {
  if (i < j) std::swap(i, j);
  FEIO_ASSERT(j >= low_[static_cast<std::size_t>(i)]);
  slot(i, j) = v;
}

void SkylineMatrix::add(int i, int j, double v) {
  if (i < j) std::swap(i, j);
  FEIO_ASSERT(j >= low_[static_cast<std::size_t>(i)]);
  slot(i, j) += v;
}

void SkylineMatrix::apply_dirichlet(int i, double value,
                                    std::vector<double>& rhs,
                                    std::vector<DirichletRhsOp>* record) {
  FEIO_ASSERT(!factorized_);
  FEIO_ASSERT(static_cast<int>(rhs.size()) == n_);
  // Row part (j < i): the stored columns of row i. Column part (j > i):
  // rows whose envelope reaches back to column i; any such row j has
  // j - low_j < max_height_, so the scan is bounded by the widest row.
  const int lo = low_[static_cast<std::size_t>(i)];
  const int hi = std::min(n_ - 1, i + max_height_ - 1);
  for (int j = lo; j <= hi; ++j) {
    if (j == i) continue;
    const double a = get(i, j);
    if (a != 0.0) {
      rhs[static_cast<std::size_t>(j)] -= a * value;
      set(i, j, 0.0);
      if (record != nullptr) record->push_back({j, a, value, false});
    }
  }
  set(i, i, 1.0);
  rhs[static_cast<std::size_t>(i)] = value;
  if (record != nullptr) record->push_back({i, 0.0, value, true});
}

void SkylineMatrix::multiply(const std::vector<double>& x,
                             std::vector<double>& y) const {
  FEIO_ASSERT(!factorized_);
  FEIO_ASSERT(static_cast<int>(x.size()) == n_);
  y.assign(static_cast<std::size_t>(n_), 0.0);
  for (int i = 0; i < n_; ++i) {
    const int lo = low_[static_cast<std::size_t>(i)];
    double acc = slot(i, i) * x[static_cast<std::size_t>(i)];
    for (int j = lo; j < i; ++j) {
      const double a = slot(i, j);
      acc += a * x[static_cast<std::size_t>(j)];
      y[static_cast<std::size_t>(j)] += a * x[static_cast<std::size_t>(i)];
    }
    y[static_cast<std::size_t>(i)] += acc;
  }
}

void SkylineMatrix::factorize() {
  FEIO_ASSERT(!factorized_);
  FEIO_TRACE_SPAN(span, "fem.factorize");
  span.arg("n", n_);
  span.arg("profile", static_cast<std::int64_t>(sky_.size()));
  // Pivot tolerance relative to the matrix scale: a pivot this small means
  // the system is singular to working precision (usually a structure with
  // an unconstrained rigid-body mode).
  double max_diag = 0.0;
  for (int j = 0; j < n_; ++j) max_diag = std::max(max_diag, slot(j, j));
  const double tol = 1e-12 * std::max(max_diag, 1e-300);

  const auto pivot_check = [&](double d, int j) {
    FEIO_REQUIRE(d > tol,
                 "non-positive pivot at equation " + std::to_string(j) +
                     " (structure under-constrained or matrix indefinite)");
  };

  // Shallow envelopes take the left-looking row sweep — nothing to
  // amortize a panel over. The choice depends only on the structure (max
  // column height), so a given matrix always takes the same code path.
  if (max_height_ < 16) {
    for (int i = 0; i < n_; ++i) {
      if ((i & 127) == 0) FEIO_CHECK_CANCEL("fem.factorize.column");
      const int lo_i = low_[static_cast<std::size_t>(i)];
      for (int j = lo_i; j < i; ++j) {
        double lij = slot(i, j);
        const int klo = std::max(lo_i, low_[static_cast<std::size_t>(j)]);
        for (int k = klo; k < j; ++k) {
          lij -= slot(i, k) * slot(j, k) * slot(k, k);
        }
        slot(i, j) = lij / slot(j, j);
      }
      double d = slot(i, i);
      for (int k = lo_i; k < i; ++k) {
        const double lik = slot(i, k);
        d -= lik * lik * slot(k, k);
      }
      pivot_check(d, i);
      slot(i, i) = d;
    }
    factorized_ = true;
    return;
  }

  // Blocked right-looking factorization in column panels of width B. The
  // panel width comes from the mean column height, clamped to [8, 64] —
  // structure-only, so the partition is fixed for a given matrix.
  const auto mean_height =
      static_cast<int>(static_cast<std::int64_t>(sky_.size()) / n_);
  const int B = std::max(8, std::min(64, mean_height / 2));
  const int num_panels = (n_ + B - 1) / B;
  const int stride = round_up_lanes(B);

  // rows_by_panel[p]: rows i >= p1 whose envelope reaches into panel
  // [p0, p1) — the phase-2/3 candidates. Row i appears for every panel
  // fully left of i that its envelope touches: ~profile/B entries total.
  std::vector<std::vector<int>> rows_by_panel(
      static_cast<std::size_t>(num_panels));
  std::size_t max_rows = 0;
  for (int i = 0; i < n_; ++i) {
    const int lo_i = low_[static_cast<std::size_t>(i)];
    for (int p = lo_i / B; (p + 1) * B <= i; ++p) {
      rows_by_panel[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  for (const std::vector<int>& rows : rows_by_panel) {
    max_rows = std::max(max_rows, rows.size());
  }

  // Dense per-panel buffers, one zero-padded row of `stride` doubles per
  // panel row (b = a < width) and per candidate row (b = width + r): L
  // holds the row's panel columns of L, W holds W = L D. Row b's first
  // panel column is first[b].
  const std::size_t buffer_rows = static_cast<std::size_t>(B) + max_rows;
  std::vector<double> lbuf(buffer_rows * static_cast<std::size_t>(stride));
  std::vector<double> wbuf(lbuf.size());
  std::vector<int> first(buffer_rows);
  std::vector<double> diag(static_cast<std::size_t>(B));  // the panel's D

  for (int p = 0; p < num_panels; ++p) {
    FEIO_CHECK_CANCEL("fem.factorize.panel");
    FEIO_FAULT("fem.factorize.panel");
    const int p0 = p * B;
    const int p1 = std::min(n_, p0 + B);
    const int width = p1 - p0;
    const int end = round_up_lanes(width);
    FEIO_METRIC_ADD("fem.factorize.panels", 1);

    const std::vector<int>& rows = rows_by_panel[static_cast<std::size_t>(p)];
    const int nrows = static_cast<int>(rows.size());
    const auto lrow = [&](int b) {
      return lbuf.data() + static_cast<std::size_t>(b) * stride;
    };
    const auto wrow = [&](int b) {
      return wbuf.data() + static_cast<std::size_t>(b) * stride;
    };
    std::fill_n(lbuf.begin(), static_cast<std::size_t>(width + nrows) * stride,
                0.0);
    std::fill_n(wbuf.begin(), static_cast<std::size_t>(width + nrows) * stride,
                0.0);
    for (int b = 0; b < width + nrows; ++b) {
      const int i =
          b < width ? p0 + b : rows[static_cast<std::size_t>(b - width)];
      first[static_cast<std::size_t>(b)] =
          std::max(p0, low_[static_cast<std::size_t>(i)]) - p0;
    }

    // Solves buffer row b (matrix row i) against the panel's unit-lower
    // rows for panel columns [max(first[b], from), stop): W(i,m) = A(i,m) -
    // sum over k < m of W(i,k) L(m,k), then L(i,m) = W(i,m) / D(m), written
    // back to the envelope. Columns left of the panel were already applied
    // by earlier panels' trailing updates.
    const auto solve_row = [&](int b, int i, int from, int stop) {
      double* l = lrow(b);
      double* w = wrow(b);
      const int lo = first[static_cast<std::size_t>(b)];
      double* a = &slot(i, p0 + lo);
      for (int m = std::max(lo, from); m < stop; ++m) {
        const int k0 = std::max(lo, first[static_cast<std::size_t>(m)]);
        const double wm =
            a[m - lo] -
            panel_dot(w, lrow(m), floor_lanes(k0), round_up_lanes(m));
        w[m] = wm;
        l[m] = wm / diag[static_cast<std::size_t>(m)];
        a[m - lo] = l[m];
      }
    };

    // Four buffer rows b0..b0+3 (matrix rows i4[t]) solved together for
    // columns [first, stop): solve_row for each, sharing the loads of the
    // panel rows, which must be finished. A row whose envelope starts
    // right of column m has only zeros below m, so its sum is unchanged by
    // the shared start and its entry is skipped.
    const auto solve_rows4 = [&](int b0, const int* i4, int stop) {
      const double* w4[4];
      double* a4[4];
      int lo4[4];
      int lo = stop;
      for (int t = 0; t < 4; ++t) {
        w4[t] = wrow(b0 + t);
        lo4[t] = first[static_cast<std::size_t>(b0 + t)];
        a4[t] = &slot(i4[t], p0 + lo4[t]);
        lo = std::min(lo, lo4[t]);
      }
      for (int m = lo; m < stop; ++m) {
        const int k0 = std::max(lo, first[static_cast<std::size_t>(m)]);
        double acc[4];
        panel_dot4(lrow(m), w4, floor_lanes(k0), round_up_lanes(m), acc);
        for (int t = 0; t < 4; ++t) {
          if (m < lo4[t]) continue;
          const double wm = a4[t][m - lo4[t]] - acc[t];
          wrow(b0 + t)[m] = wm;
          lrow(b0 + t)[m] = wm / diag[static_cast<std::size_t>(m)];
          a4[t][m - lo4[t]] = lrow(b0 + t)[m];
        }
      }
    };

    // Phase 1: diagonal block, serial, four rows at a time. A group's
    // columns left of its first row need only finished rows, so they go
    // through solve_rows4; its 4x4 triangle and pivots go row by row.
    for (int g = 0; g < width; g += 4) {
      int from = 0;  // a last group of one to three rows goes row by row
      if (g + 4 <= width) {
        const int i4[4] = {p0 + g, p0 + g + 1, p0 + g + 2, p0 + g + 3};
        solve_rows4(g, i4, g);
        from = g;
      }
      for (int a = g; a < std::min(width, g + 4); ++a) {
        const int j = p0 + a;
        solve_row(a, j, from, a);
        const int lo = first[static_cast<std::size_t>(a)];
        const double d = slot(j, j) - panel_dot(wrow(a), lrow(a),
                                                floor_lanes(lo),
                                                round_up_lanes(a));
        pivot_check(d, j);
        slot(j, j) = d;
        diag[static_cast<std::size_t>(a)] = d;
      }
    }
    if (nrows == 0) continue;

    // Phase 2: off-diagonal block row solve, four candidate rows at a time.
    const int quads = nrows - nrows % 4;
    for (int r = 0; r < quads; r += 4) {
      solve_rows4(width + r, &rows[static_cast<std::size_t>(r)], width);
    }
    for (int r = quads; r < nrows; ++r) {
      solve_row(width + r, rows[static_cast<std::size_t>(r)], 0, width);
    }

    // Phase 3: symmetric trailing update A(i,j) -= L(i,:) . W(j,:) for
    // every candidate pair j <= i. Every affected (i, j) pair has both rows
    // in the candidate list, and j >= low_i because low_i < p1 <= j. A
    // tile's shared start is a lane boundary at or below each of its
    // entries' first non-zero term.
    const auto row_entries = [&](int r) {  // [j] is entry (rows[r], j)
      const int i = rows[static_cast<std::size_t>(r)];
      return sky_.data() + start_[static_cast<std::size_t>(i)] -
             low_[static_cast<std::size_t>(i)];
    };
    const auto lo_of = [&](int r) {  // candidate r's first panel column
      return first[static_cast<std::size_t>(width + r)];
    };
    const auto entry_dot = [&](int r, int c) {  // L(rows[r],:) . W(rows[c],:)
      return panel_dot(lrow(width + r), wrow(width + c),
                       floor_lanes(std::max(lo_of(r), lo_of(c))), end);
    };
    // One row r: four columns at a time, then one.
    const auto update_row = [&](int r) {
      double* s = row_entries(r);
      const double* li = lrow(width + r);
      int c = 0;
      for (; c + 4 <= r + 1; c += 4) {
        const double* w4[4] = {wrow(width + c), wrow(width + c + 1),
                               wrow(width + c + 2), wrow(width + c + 3)};
        const int k0 = std::min(std::min(lo_of(c), lo_of(c + 1)),
                                std::min(lo_of(c + 2), lo_of(c + 3)));
        double acc[4];
        panel_dot4(li, w4, floor_lanes(std::max(lo_of(r), k0)), end, acc);
        for (int t = 0; t < 4; ++t) {
          s[rows[static_cast<std::size_t>(c + t)]] -= acc[t];
        }
      }
      for (; c <= r; ++c) {
        s[rows[static_cast<std::size_t>(c)]] -= entry_dot(r, c);
      }
    };
    // Rows r and r + 1 on 2x2 tiles over their shared columns c <= r; the
    // odd columns left over go one entry at a time.
    const auto update_rows2 = [&](int r) {
      double* s0 = row_entries(r);
      double* s1 = row_entries(r + 1);
      const double* l0 = lrow(width + r);
      const double* l1 = lrow(width + r + 1);
      const int lo = std::min(lo_of(r), lo_of(r + 1));
      int c = 0;
      for (; c + 2 <= r + 1; c += 2) {
        const int k0 = std::max(lo, std::min(lo_of(c), lo_of(c + 1)));
        double acc[4];
        panel_dot2x2(l0, l1, wrow(width + c), wrow(width + c + 1),
                     floor_lanes(k0), end, acc);
        const int j0 = rows[static_cast<std::size_t>(c)];
        const int j1 = rows[static_cast<std::size_t>(c + 1)];
        s0[j0] -= acc[0];
        s0[j1] -= acc[1];
        s1[j0] -= acc[2];
        s1[j1] -= acc[3];
      }
      for (; c <= r + 1; ++c) {
        const int j = rows[static_cast<std::size_t>(c)];
        if (c <= r) s0[j] -= entry_dot(r, c);
        s1[j] -= entry_dot(r + 1, c);
      }
    };
    // Rows 0-1, 2-3, ... on 2x2 tiles; an odd last row goes on 1x4 tiles.
    const int pairs = nrows - nrows % 2;
    for (int r = 0; r < pairs; r += 2) update_rows2(r);
    if (pairs < nrows) update_row(pairs);
  }
  factorized_ = true;
}

void SkylineMatrix::solve(std::vector<double>& rhs) const {
  FEIO_ASSERT(factorized_);
  FEIO_ASSERT(static_cast<int>(rhs.size()) == n_);
  FEIO_TRACE_SPAN(span, "fem.solve");
  span.arg("n", n_);
  // Forward substitution: L y = rhs, row-oriented over stored entries.
  for (int i = 0; i < n_; ++i) {
    const int lo = low_[static_cast<std::size_t>(i)];
    double y = rhs[static_cast<std::size_t>(i)];
    for (int k = lo; k < i; ++k) {
      y -= slot(i, k) * rhs[static_cast<std::size_t>(k)];
    }
    rhs[static_cast<std::size_t>(i)] = y;
  }
  // Diagonal: z = D^-1 y.
  for (int i = 0; i < n_; ++i) {
    rhs[static_cast<std::size_t>(i)] /= slot(i, i);
  }
  // Back substitution: L^T x = z, column-sweep form so only row i's stored
  // entries are touched (the column of L^T is the row of L).
  for (int i = n_ - 1; i >= 0; --i) {
    const int lo = low_[static_cast<std::size_t>(i)];
    const double xi = rhs[static_cast<std::size_t>(i)];
    for (int k = lo; k < i; ++k) {
      rhs[static_cast<std::size_t>(k)] -= slot(i, k) * xi;
    }
  }
}

}  // namespace feio::fem
