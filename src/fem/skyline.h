// Symmetric compressed-skyline (envelope) matrix with in-envelope LDL^T —
// the one stiffness layout of the analysis.
//
// Skyline storage keeps one packed row per equation, sized by that row's
// true height, and the no-pivoting LDL^T fill stays inside the envelope, so
// storage and flops scale with the profile (the column-height sum). A band
// is the special case whose rows all start at i - hbw, which is why the
// paper's bandwidth renumbering (claim C6) still pays off here: RCM shrinks
// the envelope along with the band.
//
// The factorization is blocked, serial and deterministic: the panel
// partition and every entry's update-sum order depend only on the matrix
// structure, so factors are bit-identical at any thread setting.
// Cancel, guard, and fault sites: fem.alloc, fem.factorize.column/panel.
#pragma once

#include <cstdint>
#include <vector>

namespace feio::fem {

// One rhs-side effect of a Dirichlet application, recorded during the cold
// assemble so the factor cache can re-apply the identical transformation to
// a *different* load vector. The coefficients are the pre-elimination K
// entries apply_dirichlet saw — load-independent, so replaying them against
// a fresh rhs reproduces the constrained rhs bit-for-bit (same values, same
// order, same arithmetic).
struct DirichletRhsOp {
  int dof = -1;        // rhs index affected
  double coeff = 0.0;  // K(i, j) at application time (unused for set ops)
  double value = 0.0;  // prescribed displacement
  bool is_set = false; // true: rhs[dof] = value; false: rhs[dof] -= coeff*value
};

// Replays a recorded Dirichlet op sequence against an unconstrained rhs.
inline void replay_dirichlet_rhs(const std::vector<DirichletRhsOp>& ops,
                                 std::vector<double>& rhs) {
  for (const DirichletRhsOp& op : ops) {
    if (op.is_set) {
      rhs[static_cast<std::size_t>(op.dof)] = op.value;
    } else {
      rhs[static_cast<std::size_t>(op.dof)] -= op.coeff * op.value;
    }
  }
}

class SkylineMatrix {
 public:
  // n x n symmetric matrix, n = column_lows.size(). column_lows[i] is the
  // first (lowest-index) row coupled to column i; column i stores rows
  // [column_lows[i], i] of the upper triangle — equivalently row i of the
  // lower triangle stores columns [column_lows[i], i]. Requires
  // 0 <= column_lows[i] <= i.
  explicit SkylineMatrix(std::vector<int> column_lows);

  int size() const { return n_; }
  // Height of column i, diagonal included.
  int column_height(int i) const {
    return i - low_[static_cast<std::size_t>(i)] + 1;
  }
  int max_column_height() const { return max_height_; }

  // Access by (row, col); only the envelope is stored, symmetric access is
  // transparent. Out-of-envelope reads return 0; out-of-envelope writes
  // are programming errors.
  double get(int i, int j) const;
  void set(int i, int j, double v);
  void add(int i, int j, double v);

  // Replaces row/column i with the identity row and moves the prescribed
  // value's contributions to the right-hand side: the classic direct method
  // for Dirichlet conditions that preserves symmetry and the envelope. When
  // `record` is non-null, every rhs mutation is appended as a
  // DirichletRhsOp so the sequence can later be replayed against a new
  // unconstrained rhs (see fem/factor_cache.h).
  void apply_dirichlet(int i, double value, std::vector<double>& rhs,
                       std::vector<DirichletRhsOp>* record = nullptr);

  // y = A x for the unfactorized matrix (reaction recovery, residuals).
  void multiply(const std::vector<double>& x, std::vector<double>& y) const;

  // In-place LDL^T factorization restricted to the envelope (which is
  // closed under no-pivoting LDL^T fill). Throws feio::Error on a
  // non-positive pivot (singular or indefinite system — usually an
  // under-constrained structure). Bit-identical at any thread count.
  void factorize();
  bool factorized() const { return factorized_; }

  // Solves A x = rhs using the factorization; rhs is replaced by x.
  void solve(std::vector<double>& rhs) const;

  // Number of stored doubles (the profile in dof terms).
  std::size_t storage() const { return sky_.size(); }

  // Raw storage + structure. After factorize() the values are the exact
  // factor bytes; adopt_factor() rebuilds a solve-ready matrix from them,
  // which is what makes factor-cache hits bit-identical to the cold path.
  const std::vector<double>& values() const { return sky_; }
  const std::vector<int>& column_lows() const { return low_; }
  static SkylineMatrix adopt_factor(std::vector<int> column_lows,
                                    std::vector<double> values);

 private:
  double& slot(int i, int j) {
    return sky_[static_cast<std::size_t>(
        start_[static_cast<std::size_t>(i)] +
        (j - low_[static_cast<std::size_t>(i)]))];
  }
  const double& slot(int i, int j) const {
    return sky_[static_cast<std::size_t>(
        start_[static_cast<std::size_t>(i)] +
        (j - low_[static_cast<std::size_t>(i)]))];
  }

  int n_ = 0;
  bool factorized_ = false;
  int max_height_ = 0;
  std::vector<int> low_;             // low_[i]: first stored column of row i
  std::vector<std::int64_t> start_;  // start_[i]: offset of row i in sky_
  std::vector<double> sky_;          // packed rows, columns ascending
};

}  // namespace feio::fem
