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
#include "util/parallel.h"
#include "util/trace.h"

namespace feio::fem {
namespace {

// Panel inner products run over whole blocks of kLanes terms: lane q sums
// the terms k = q (mod kLanes) in ascending k, and the lanes combine in a
// fixed tree. Panel rows are zero-padded on both sides, so a range may
// start at any lane boundary at or below its first non-zero term — the
// extra terms add exact zeros — and an entry's value depends only on the
// data, never on which rows share a chunk or a thread.
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

// Four panel_dot(a, b[t], k0, k1) at once, sharing the loads of `a`; each
// result is bit-identical to its panel_dot.
void panel_dot4(const double* a, const double* const b[4], int k0, int k1,
                double out[4]) {
  Pair lo[4] = {};
  Pair hi[4] = {};
  for (int k = k0; k < k1; k += kLanes) {
    const Pair alo = load_pair(a + k);
    const Pair ahi = load_pair(a + k + 2);
    for (int t = 0; t < 4; ++t) {
      lo[t] += alo * load_pair(b[t] + k);
      hi[t] += ahi * load_pair(b[t] + k + 2);
    }
  }
  for (int t = 0; t < 4; ++t) out[t] = lane_sum(lo[t], hi[t]);
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

  // Shallow envelopes take the serial left-looking row sweep — nothing to
  // amortize a panel over. The choice depends ONLY on the structure
  // (max column height), never the thread count, so a given matrix always
  // takes the same code path and factors bit-identically at any setting.
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
    // rows for panel columns [first[b], stop): W(i,m) = A(i,m) - sum over
    // k < m of W(i,k) L(m,k), then L(i,m) = W(i,m) / D(m), written back to
    // the envelope. Columns left of the panel were already applied by
    // earlier panels' trailing updates.
    const auto solve_row = [&](int b, int i, int stop) {
      double* l = lrow(b);
      double* w = wrow(b);
      const int lo = first[static_cast<std::size_t>(b)];
      double* a = &slot(i, p0 + lo);
      for (int m = lo; m < stop; ++m) {
        const int k0 = std::max(lo, first[static_cast<std::size_t>(m)]);
        const double wm =
            a[m - lo] -
            panel_dot(w, lrow(m), floor_lanes(k0), round_up_lanes(m));
        w[m] = wm;
        l[m] = wm / diag[static_cast<std::size_t>(m)];
        a[m - lo] = l[m];
      }
    };

    // Phase 1: diagonal block, serial, one row at a time.
    for (int a = 0; a < width; ++a) {
      const int j = p0 + a;
      solve_row(a, j, a);
      const int lo = first[static_cast<std::size_t>(a)];
      const double d = slot(j, j) - panel_dot(wrow(a), lrow(a), floor_lanes(lo),
                                              round_up_lanes(a));
      pivot_check(d, j);
      slot(j, j) = d;
      diag[static_cast<std::size_t>(a)] = d;
    }
    if (nrows == 0) continue;

    // Four candidate rows solved together: solve_row for each, sharing the
    // loads of the panel rows. A row whose envelope starts right of column
    // m has only zeros below m, so its sum is unchanged by the shared
    // start and its entry is skipped.
    const auto solve_rows4 = [&](int r) {
      const double* w4[4];
      double* a4[4];
      int lo4[4];
      int lo = width;
      for (int t = 0; t < 4; ++t) {
        const int b = width + r + t;
        w4[t] = wrow(b);
        lo4[t] = first[static_cast<std::size_t>(b)];
        a4[t] = &slot(rows[static_cast<std::size_t>(r + t)], p0 + lo4[t]);
        lo = std::min(lo, lo4[t]);
      }
      for (int m = lo; m < width; ++m) {
        const int k0 = std::max(lo, first[static_cast<std::size_t>(m)]);
        double acc[4];
        panel_dot4(lrow(m), w4, floor_lanes(k0), round_up_lanes(m), acc);
        for (int t = 0; t < 4; ++t) {
          if (m < lo4[t]) continue;
          const int b = width + r + t;
          const double wm = a4[t][m - lo4[t]] - acc[t];
          wrow(b)[m] = wm;
          lrow(b)[m] = wm / diag[static_cast<std::size_t>(m)];
          a4[t][m - lo4[t]] = lrow(b)[m];
        }
      }
    };

    // Phase 2: off-diagonal block row solve; rows are independent.
    util::parallel_chunks(
        nrows, util::chunk_count(nrows, 0),
        [&](int /*chunk*/, std::int64_t begin, std::int64_t stop) {
          auto r = static_cast<int>(begin);
          for (; r + 4 <= stop; r += 4) solve_rows4(r);
          for (; r < stop; ++r) {
            solve_row(width + r, rows[static_cast<std::size_t>(r)], width);
          }
        });

    // Phase 3: symmetric trailing update A(i,j) -= L(i,:) . W(j,:) for
    // every candidate pair j <= i, one writer per entry: items are rows i,
    // so each item writes only its own row. Every affected (i, j) pair has
    // both rows in the candidate list, and j >= low_i because
    // low_i < p1 <= j.
    util::parallel_chunks(
        nrows, util::chunk_count(nrows, 0),
        [&](int /*chunk*/, std::int64_t begin, std::int64_t stop) {
          for (std::int64_t r = begin; r < stop; ++r) {
            const int bi = width + static_cast<int>(r);
            const int i = rows[static_cast<std::size_t>(r)];
            // sky_[row_base + j] is entry (i, j) of row i's envelope.
            const std::int64_t row_base = start_[static_cast<std::size_t>(i)] -
                                          low_[static_cast<std::size_t>(i)];
            const double* li = lrow(bi);
            const int lo_i = first[static_cast<std::size_t>(bi)];
            const int cols = static_cast<int>(r) + 1;
            int c = 0;
            for (; c + 4 <= cols; c += 4) {
              const double* w4[4];
              int k0 = end;
              for (int t = 0; t < 4; ++t) {
                const int bj = width + c + t;
                w4[t] = wrow(bj);
                k0 = std::min(k0, first[static_cast<std::size_t>(bj)]);
              }
              double acc[4];
              panel_dot4(li, w4, floor_lanes(std::max(lo_i, k0)), end, acc);
              for (int t = 0; t < 4; ++t) {
                const int j = rows[static_cast<std::size_t>(c + t)];
                sky_[static_cast<std::size_t>(row_base + j)] -= acc[t];
              }
            }
            for (; c < cols; ++c) {
              const int bj = width + c;
              const int j = rows[static_cast<std::size_t>(c)];
              const int k0 =
                  std::max(lo_i, first[static_cast<std::size_t>(bj)]);
              sky_[static_cast<std::size_t>(row_base + j)] -=
                  panel_dot(li, wrow(bj), floor_lanes(k0), end);
            }
          }
        });
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
