// Envelope LDL^T (fem/skyline.h), the one stiffness layout: storage
// semantics, dense-reference correctness of the blocked factorization on
// band-shaped and ragged envelopes, random-SPD residual sweeps, bit-identity
// across thread counts (small matrices and the benchmark-scale strip and
// plate), digests pinning the kernel's factor and solution bits, the
// storage size report, and the factor cache's ordering keying.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "digest.h"
#include "fem/assembly.h"
#include "fem/factor_cache.h"
#include "fem/material.h"
#include "fem/skyline.h"
#include "fem/solver.h"
#include "feio/run_options.h"
#include "idlz/idlz.h"
#include "mesh/tri_mesh.h"
#include "scenarios/pipeline_bench.h"
#include "util/error.h"
#include "util/parallel.h"

namespace feio::fem {
namespace {

std::vector<int> band_lows(int n, int hbw) {
  std::vector<int> lows(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) lows[static_cast<size_t>(i)] = std::max(0, i - hbw);
  return lows;
}

// ---- storage semantics ----------------------------------------------------
//
// BandedMatrixTest covers the band special case of the envelope (row i
// starts at column i - hbw); SkylineMatrixTest covers ragged envelopes,
// whose rows start independently and leave holes beside a tall row.

TEST(BandedMatrixTest, SymmetricAccess) {
  SkylineMatrix m(band_lows(4, 2));
  m.set(1, 3, 5.0);
  EXPECT_DOUBLE_EQ(m.get(1, 3), 5.0);
  EXPECT_DOUBLE_EQ(m.get(3, 1), 5.0);
  m.add(3, 1, 1.0);
  EXPECT_DOUBLE_EQ(m.get(1, 3), 6.0);
}

TEST(BandedMatrixTest, OutOfBandReadsZero) {
  SkylineMatrix m(band_lows(5, 1));
  EXPECT_DOUBLE_EQ(m.get(0, 4), 0.0);
  EXPECT_DOUBLE_EQ(m.get(4, 2), 0.0);
}

TEST(BandedMatrixTest, StorageScalesWithBandwidth) {
  // A band stores n(hbw+1) - hbw(hbw+1)/2 entries: the full band less the
  // triangle that would hang above row 0.
  EXPECT_EQ(SkylineMatrix(band_lows(10, 2)).storage(), 27u);
  EXPECT_EQ(SkylineMatrix(band_lows(10, 5)).storage(), 45u);
  EXPECT_EQ(SkylineMatrix(band_lows(10, 5)).max_column_height(), 6);
}

TEST(BandedMatrixTest, SolvesDiagonalSystem) {
  SkylineMatrix m(band_lows(3, 0));
  m.set(0, 0, 2.0);
  m.set(1, 1, 4.0);
  m.set(2, 2, 8.0);
  m.factorize();
  std::vector<double> rhs{2.0, 8.0, 4.0};
  m.solve(rhs);
  EXPECT_DOUBLE_EQ(rhs[0], 1.0);
  EXPECT_DOUBLE_EQ(rhs[1], 2.0);
  EXPECT_DOUBLE_EQ(rhs[2], 0.5);
}

TEST(BandedMatrixTest, SolvesTridiagonalSystem) {
  // Classic [-1 2 -1] Poisson matrix; verify A x = e_mid by residual.
  const int n = 5;
  SkylineMatrix a(band_lows(n, 1));
  for (int i = 0; i < n; ++i) {
    a.set(i, i, 2.0);
    if (i + 1 < n) a.set(i, i + 1, -1.0);
  }
  SkylineMatrix f = a;
  f.factorize();
  std::vector<double> x(n, 0.0);
  x[2] = 1.0;
  f.solve(x);
  for (int i = 0; i < n; ++i) {
    double r = 0.0;
    for (int j = 0; j < n; ++j) r += a.get(i, j) * x[static_cast<size_t>(j)];
    EXPECT_NEAR(r, i == 2 ? 1.0 : 0.0, 1e-12);
  }
}

TEST(BandedMatrixTest, DirichletPreservesSolution) {
  SkylineMatrix m(band_lows(3, 1));
  m.set(0, 0, 2.0);
  m.set(1, 1, 2.0);
  m.set(2, 2, 2.0);
  m.set(0, 1, -1.0);
  m.set(1, 2, -1.0);
  std::vector<double> rhs{0.0, 0.0, 0.0};
  m.apply_dirichlet(0, 3.0, rhs);
  m.factorize();
  m.solve(rhs);
  EXPECT_NEAR(rhs[0], 3.0, 1e-12);
  // Remaining equations: 2x1 - x2 = 3, -x1 + 2x2 = 0 -> x1 = 2, x2 = 1.
  EXPECT_NEAR(rhs[1], 2.0, 1e-12);
  EXPECT_NEAR(rhs[2], 1.0, 1e-12);
}

TEST(BandedMatrixTest, SingularThrows) {
  SkylineMatrix m(band_lows(2, 1));
  m.set(0, 0, 1.0);
  m.set(0, 1, 1.0);
  m.set(1, 1, 1.0);  // rank 1
  EXPECT_THROW(m.factorize(), Error);
}

TEST(BandedMatrixTest, IndefiniteThrows) {
  SkylineMatrix m(band_lows(2, 0));
  m.set(0, 0, -1.0);
  m.set(1, 1, 1.0);
  EXPECT_THROW(m.factorize(), Error);
}

TEST(SkylineMatrixTest, SymmetricAccess) {
  // Row 2 reaches back to column 0 past row 1, which stores only its
  // diagonal.
  SkylineMatrix m({0, 1, 0, 2});
  m.set(2, 0, 5.0);
  EXPECT_DOUBLE_EQ(m.get(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.get(0, 2), 5.0);
  m.add(0, 2, 1.0);
  EXPECT_DOUBLE_EQ(m.get(2, 0), 6.0);
}

TEST(SkylineMatrixTest, OutOfEnvelopeReadsZero) {
  // Row 2 is tall between the short rows 1 and 3, so (1,0) and (3,0..1)
  // are holes. Every stored entry reads back from either triangle; every
  // other entry reads 0.
  const std::vector<int> lows{0, 1, 0, 2, 1};
  SkylineMatrix m(lows);
  for (int i = 0; i < 5; ++i) {
    for (int j = lows[static_cast<size_t>(i)]; j <= i; ++j) {
      m.set(i, j, 1.0 + 10.0 * i + j);
    }
  }
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < i; ++j) {
      const double want =
          j >= lows[static_cast<size_t>(i)] ? 1.0 + 10.0 * i + j : 0.0;
      EXPECT_DOUBLE_EQ(m.get(i, j), want) << "(" << i << "," << j << ")";
      EXPECT_DOUBLE_EQ(m.get(j, i), want) << "(" << j << "," << i << ")";
    }
  }
}

TEST(SkylineMatrixTest, StorageIsColumnHeightSum) {
  // Heights 1, 2, 1, 4: a ragged envelope stores exactly its profile.
  SkylineMatrix m({0, 0, 2, 0});
  EXPECT_EQ(m.storage(), 8u);
  EXPECT_EQ(m.column_height(0), 1);
  EXPECT_EQ(m.column_height(1), 2);
  EXPECT_EQ(m.column_height(2), 1);
  EXPECT_EQ(m.column_height(3), 4);
  EXPECT_EQ(m.max_column_height(), 4);
}

TEST(SkylineMatrixTest, InvalidColumnLowsThrow) {
  EXPECT_THROW(SkylineMatrix({0, 2}), Error);   // low > row
  EXPECT_THROW(SkylineMatrix({-1, 0}), Error);  // negative low
}

TEST(SkylineMatrixTest, SolvesDiagonalSystem) {
  // Row 2's envelope stores explicit zeros back to column 0; they must not
  // perturb the solve.
  SkylineMatrix m({0, 1, 0});
  m.set(0, 0, 2.0);
  m.set(1, 1, 4.0);
  m.set(2, 2, 8.0);
  m.factorize();
  std::vector<double> rhs{2.0, 8.0, 4.0};
  m.solve(rhs);
  EXPECT_DOUBLE_EQ(rhs[0], 1.0);
  EXPECT_DOUBLE_EQ(rhs[1], 2.0);
  EXPECT_DOUBLE_EQ(rhs[2], 0.5);
}

TEST(SkylineMatrixTest, DirichletPreservesSolution) {
  // Chain 0-1-2 plus a long coupling 3-0: row 3 reaches back to column 0
  // past row 2, which starts at column 1.
  SkylineMatrix m({0, 0, 1, 0});
  for (int i = 0; i < 4; ++i) m.set(i, i, 2.0);
  m.set(0, 1, -1.0);
  m.set(1, 2, -1.0);
  m.set(0, 3, -1.0);
  std::vector<double> rhs{0.0, 0.0, 0.0, 0.0};
  m.apply_dirichlet(0, 3.0, rhs);
  m.factorize();
  m.solve(rhs);
  EXPECT_NEAR(rhs[0], 3.0, 1e-12);
  // Remaining equations: 2x1 - x2 = 3, -x1 + 2x2 = 0, 2x3 = 3.
  EXPECT_NEAR(rhs[1], 2.0, 1e-12);
  EXPECT_NEAR(rhs[2], 1.0, 1e-12);
  EXPECT_NEAR(rhs[3], 1.5, 1e-12);
}

TEST(SkylineMatrixTest, SingularThrows) {
  // Rows 0 and 2 are equal across the short row 1: rank 2 of 3.
  SkylineMatrix m({0, 1, 0});
  m.set(0, 0, 1.0);
  m.set(1, 1, 1.0);
  m.set(2, 0, 1.0);
  m.set(2, 2, 1.0);
  EXPECT_THROW(m.factorize(), Error);
}

TEST(SkylineMatrixTest, IndefiniteThrows) {
  // Every diagonal is positive; the long coupling 2-0 drives the last
  // pivot to 1 - 2 * 2 / 1 = -3.
  SkylineMatrix m({0, 1, 0});
  m.set(0, 0, 1.0);
  m.set(1, 1, 1.0);
  m.set(2, 0, 2.0);
  m.set(2, 2, 1.0);
  EXPECT_THROW(m.factorize(), Error);
}

// ---- dense-reference correctness ------------------------------------------

// Dense LDL^T, no blocking, no packed storage — the independent reference
// the blocked envelope code is checked against.
struct DenseLdlt {
  int n;
  std::vector<std::vector<double>> l;  // unit lower, D on the diagonal

  explicit DenseLdlt(const SkylineMatrix& a) : n(a.size()) {
    std::vector<std::vector<double>> m(
        static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) m[i][j] = a.get(i, j);
    }
    l = m;
    for (int j = 0; j < n; ++j) {
      double d = m[j][j];
      for (int k = 0; k < j; ++k) d -= l[j][k] * l[j][k] * l[k][k];
      l[j][j] = d;
      for (int i = j + 1; i < n; ++i) {
        double lij = m[i][j];
        for (int k = 0; k < j; ++k) lij -= l[i][k] * l[j][k] * l[k][k];
        l[i][j] = lij / d;
      }
    }
  }

  std::vector<double> solve(std::vector<double> b) const {
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < i; ++k) b[i] -= l[i][k] * b[k];
    }
    for (int i = 0; i < n; ++i) b[i] /= l[i][i];
    for (int i = n - 1; i >= 0; --i) {
      for (int k = i + 1; k < n; ++k) b[i] -= l[k][i] * b[k];
    }
    return b;
  }
};

// Random ragged envelope: column i reaches back a random height in
// [1, max_h], clamped to the matrix. Returns the lows.
std::vector<int> random_lows(int n, int max_h, std::mt19937& rng) {
  std::uniform_int_distribution<int> height(1, max_h);
  std::vector<int> lows(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    lows[static_cast<size_t>(i)] = std::max(0, i - (height(rng) - 1));
  }
  return lows;
}

// Random SPD values over a given envelope (diagonal dominance => SPD).
SkylineMatrix random_spd_skyline(std::vector<int> lows, int max_h,
                                 unsigned seed) {
  SkylineMatrix a(std::move(lows));
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int i = 0; i < a.size(); ++i) {
    for (int j = i - a.column_height(i) + 1; j < i; ++j) {
      a.set(i, j, dist(rng));
    }
    a.set(i, i, 2.0 * max_h + 4.0);
  }
  return a;
}

// Random SPD band-shaped envelope: every row starts at i - hbw.
SkylineMatrix random_spd_band(int n, int hbw, unsigned seed) {
  return random_spd_skyline(band_lows(n, hbw), hbw, seed);
}

// Property: random SPD systems on band-shaped envelopes solve to machine
// precision, for several half-bandwidths (serial and blocked paths).
class BandedSolveSweep : public ::testing::TestWithParam<int> {};

TEST_P(BandedSolveSweep, RandomSpdResidualSmall) {
  const int hbw = GetParam();
  const int n = 40;
  const unsigned seed = static_cast<unsigned>(hbw) * 7919u + 3u;
  const SkylineMatrix a = random_spd_band(n, hbw, seed);
  SkylineMatrix f = a;
  f.factorize();

  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> x_true(static_cast<size_t>(n));
  for (double& v : x_true) v = dist(rng);
  std::vector<double> rhs;
  a.multiply(x_true, rhs);
  f.solve(rhs);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(rhs[static_cast<size_t>(i)], x_true[static_cast<size_t>(i)],
                1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, BandedSolveSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 39));

// The blocked factorization of band-shaped envelopes agrees with the dense
// reference across shapes spanning the serial path (max height < 16), the
// blocked path, multiple panels, a panel remainder, the capped panel width,
// and a nearly dense matrix.
class BlockedVsDense
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BlockedVsDense, FactorsAndSolutionsMatchDenseReference) {
  const auto [n, hbw] = GetParam();
  const SkylineMatrix a =
      random_spd_band(n, hbw, static_cast<unsigned>(n * 131 + hbw));
  const DenseLdlt ref(a);

  SkylineMatrix f = a;
  f.factorize();
  const double tol = 1e-9 * (2.0 * hbw + 4.0);
  for (int i = 0; i < n; ++i) {
    for (int j = std::max(0, i - hbw); j <= i; ++j) {
      EXPECT_NEAR(f.get(i, j), ref.l[i][j], tol)
          << "L/D entry (" << i << "," << j << ") n=" << n << " hbw=" << hbw;
    }
  }

  std::mt19937 rng(static_cast<unsigned>(n + hbw));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> b(static_cast<size_t>(n));
  for (double& v : b) v = dist(rng);
  std::vector<double> x = b;
  f.solve(x);
  const std::vector<double> x_ref = ref.solve(b);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<size_t>(i)], x_ref[static_cast<size_t>(i)],
                1e-10)
        << "solution entry " << i << " n=" << n << " hbw=" << hbw;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedVsDense,
    ::testing::Values(std::pair{40, 8},     // serial path
                      std::pair{40, 16},    // smallest blocked height
                      std::pair{97, 24},    // panel remainder
                      std::pair{128, 32},   // multiple panels
                      std::pair{257, 64},   // panel width capped
                      std::pair{300, 150},  // wide band, few panels
                      std::pair{64, 63}));  // nearly dense

// The same band matrix stored in its tight envelope and in the full lower
// triangle (explicit zeros above the band): both layouts factor to the
// dense reference — stored zeros inside an envelope never change a factor
// beyond rounding, whatever panel partition the envelope implies.
class BandSkylineVsDense
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BandSkylineVsDense, BothLayoutsMatchDenseReference) {
  const auto [n, hbw] = GetParam();
  const SkylineMatrix band =
      random_spd_band(n, hbw, static_cast<unsigned>(n * 131 + hbw));
  SkylineMatrix full(std::vector<int>(static_cast<size_t>(n), 0));
  for (int i = 0; i < n; ++i) {
    for (int j = std::max(0, i - hbw); j <= i; ++j) {
      full.set(i, j, band.get(i, j));
    }
  }
  const DenseLdlt ref(band);

  SkylineMatrix fb = band;
  SkylineMatrix ff = full;
  fb.factorize();
  ff.factorize();
  const double tol = 1e-9 * (2.0 * hbw + 4.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      EXPECT_NEAR(ff.get(i, j), ref.l[i][j], tol)
          << "full-triangle L/D entry (" << i << "," << j << ")";
      if (j >= i - hbw) {
        EXPECT_NEAR(fb.get(i, j), ref.l[i][j], tol)
            << "band L/D entry (" << i << "," << j << ")";
      }
    }
  }

  std::mt19937 rng(static_cast<unsigned>(n * 7 + hbw));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> b(static_cast<size_t>(n));
  for (double& v : b) v = dist(rng);
  std::vector<double> x_band = b;
  std::vector<double> x_full = b;
  fb.solve(x_band);
  ff.solve(x_full);
  const std::vector<double> x_ref = ref.solve(b);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x_band[static_cast<size_t>(i)], x_ref[static_cast<size_t>(i)],
                1e-10)
        << "band solution entry " << i;
    EXPECT_NEAR(x_full[static_cast<size_t>(i)], x_ref[static_cast<size_t>(i)],
                1e-10)
        << "full-triangle solution entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BandSkylineVsDense,
    ::testing::Values(std::pair{40, 8},     // band on the serial path
                      std::pair{40, 16},    // smallest blocked height
                      std::pair{97, 24},    // panel remainder
                      std::pair{128, 32},   // multiple panels
                      std::pair{257, 64},   // panel width capped
                      std::pair{300, 150},  // wide band, few panels
                      std::pair{64, 63}));  // nearly dense

// Ragged (truly skyline-shaped) envelopes against the dense reference.
class RaggedVsDense : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RaggedVsDense, FactorsAndSolutionsMatchDenseReference) {
  const auto [n, max_h] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(n * 77 + max_h));
  SkylineMatrix a = random_spd_skyline(random_lows(n, max_h, rng), max_h,
                                       static_cast<unsigned>(n + max_h));
  const DenseLdlt ref(a);
  a.factorize();
  const double tol = 1e-9 * (2.0 * max_h + 4.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i - a.column_height(i) + 1; j <= i; ++j) {
      EXPECT_NEAR(a.get(i, j), ref.l[i][j], tol)
          << "L/D entry (" << i << "," << j << ") n=" << n;
    }
  }
  std::mt19937 rhs_rng(static_cast<unsigned>(max_h));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> b(static_cast<size_t>(n));
  for (double& v : b) v = dist(rng);
  std::vector<double> x = b;
  a.solve(x);
  const std::vector<double> x_ref = ref.solve(b);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<size_t>(i)], x_ref[static_cast<size_t>(i)],
                1e-10)
        << "solution entry " << i << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RaggedVsDense,
                         ::testing::Values(std::pair{60, 12},   // serial path
                                           std::pair{80, 20},
                                           std::pair{150, 40},
                                           std::pair{257, 96}));

TEST(SkylineMatrixTest, AdoptFactorReplaysBitIdentically) {
  std::mt19937 rng(11u);
  SkylineMatrix a = random_spd_skyline(random_lows(90, 24, rng), 24, 5u);
  a.factorize();

  SkylineMatrix adopted =
      SkylineMatrix::adopt_factor(a.column_lows(), a.values());
  ASSERT_TRUE(adopted.factorized());
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> b(90);
  for (double& v : b) v = dist(rng);
  std::vector<double> x1 = b;
  std::vector<double> x2 = b;
  a.solve(x1);
  adopted.solve(x2);
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x1[i]),
              std::bit_cast<std::uint64_t>(x2[i]));
  }
}

// ---- determinism ----------------------------------------------------------

// Serial and 8-thread factorizations/solves are byte-identical: the chunk
// partition may differ with the thread count, but no entry's summation is
// ever resplit.
TEST(SkylineDeterminismTest, EightThreadsBitIdenticalToSerial) {
  for (const auto& [n, max_h] : {std::pair{193, 40}, std::pair{128, 48},
                                 std::pair{60, 12}}) {
    std::mt19937 rng(static_cast<unsigned>(n * 31 + max_h));
    const std::vector<int> lows = random_lows(n, max_h, rng);
    const SkylineMatrix a = random_spd_skyline(
        lows, max_h, static_cast<unsigned>(n + 3 * max_h));
    std::vector<double> b(static_cast<size_t>(n));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (double& v : b) v = dist(rng);

    SkylineMatrix f1 = a;
    std::vector<double> x1 = b;
    {
      util::ScopedThreads serial(1);
      f1.factorize();
      f1.solve(x1);
    }

    SkylineMatrix f8 = a;
    std::vector<double> x8 = b;
    {
      util::ScopedThreads eight(8);
      f8.factorize();
      f8.solve(x8);
    }

    ASSERT_EQ(f1.values().size(), f8.values().size());
    for (size_t s = 0; s < f1.values().size(); ++s) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(f1.values()[s]),
                std::bit_cast<std::uint64_t>(f8.values()[s]))
          << "factor slot " << s << " n=" << n << " max_h=" << max_h;
    }
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x1[static_cast<size_t>(i)]),
                std::bit_cast<std::uint64_t>(x8[static_cast<size_t>(i)]))
          << "solution entry " << i << " n=" << n << " max_h=" << max_h;
    }
  }
}

// The same contract on band-shaped envelopes.
TEST(BandedDeterminismTest, EightThreadsBitIdenticalToSerial) {
  for (const auto& [n, hbw] : {std::pair{193, 24}, std::pair{128, 48}}) {
    const SkylineMatrix a =
        random_spd_band(n, hbw, static_cast<unsigned>(n * 31 + hbw));
    std::vector<double> b(static_cast<size_t>(n));
    std::mt19937 rng(static_cast<unsigned>(hbw));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (double& v : b) v = dist(rng);

    SkylineMatrix f1 = a;
    std::vector<double> x1 = b;
    {
      util::ScopedThreads serial(1);
      f1.factorize();
      f1.solve(x1);
    }
    SkylineMatrix f8 = a;
    std::vector<double> x8 = b;
    {
      util::ScopedThreads eight(8);
      f8.factorize();
      f8.solve(x8);
    }
    for (size_t s = 0; s < f1.values().size(); ++s) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(f1.values()[s]),
                std::bit_cast<std::uint64_t>(f8.values()[s]))
          << "factor slot " << s << " n=" << n << " hbw=" << hbw;
    }
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x1[static_cast<size_t>(i)]),
                std::bit_cast<std::uint64_t>(x8[static_cast<size_t>(i)]))
          << "solution entry " << i << " n=" << n << " hbw=" << hbw;
    }
  }
}

// ---- bit pins --------------------------------------------------------------
//
// FNV-1a-64 digests of the factor values and of one solution, as the kernel
// computed them before its register-tiled inner loops. Every entry keeps
// one documented summation order (lane q sums the terms k = q mod 4 in
// ascending k, the lanes combine in a fixed tree), so a faster kernel must
// reproduce these bits exactly. Like the gallery table's field.* rows they
// are compared only on the table's toolchain (tests/digest.h).
void expect_pinned(const SkylineMatrix& f, const std::vector<double>& x,
                   const std::string& factor, const std::string& solution) {
  const std::string tc = golden::toolchain();
  if (tc != golden::table_toolchain()) {
    std::printf("toolchain %s differs from the gallery table's: kernel bit "
                "pins not compared\n",
                tc.c_str());
    return;
  }
  EXPECT_EQ(golden::digest(f.values()), factor) << "factor values";
  EXPECT_EQ(golden::digest(x), solution) << "solution";
}

// The blocked path's panel shapes, from the structure rule in
// SkylineMatrix::factorize: panel width B, and per panel the number of
// candidate rows (rows right of the panel whose envelope reaches into it).
struct PanelShapes {
  int B = 0;
  int last_width = 0;
  std::set<int> candidate_tails;  // candidate-row counts mod 4
  bool row_starts_mid_lane = false;
};

PanelShapes panel_shapes(const std::vector<int>& lows) {
  const int n = static_cast<int>(lows.size());
  std::int64_t profile = 0;
  for (int i = 0; i < n; ++i) profile += i - lows[static_cast<size_t>(i)] + 1;
  PanelShapes s;
  s.B = std::max(8, std::min(64, static_cast<int>(profile / n) / 2));
  s.last_width = n - (n - 1) / s.B * s.B;
  for (int p0 = 0; p0 < n; p0 += s.B) {
    const int p1 = std::min(n, p0 + s.B);
    int rows = 0;
    for (int i = p0; i < n; ++i) {
      const int lo = lows[static_cast<size_t>(i)];
      if (i >= p1 && lo < p1) ++rows;
      if (lo < p1 && (std::max(p0, lo) - p0) % 4 != 0) {
        s.row_starts_mid_lane = true;
      }
    }
    s.candidate_tails.insert(rows % 4);
  }
  return s;
}

// Random ragged envelopes on the blocked path whose panels end in every
// partial tile: candidate-row counts 1, 2 and 3 beyond a multiple of four,
// panel widths (B, and the last panel's) that are not multiples of four,
// and rows whose first panel column sits mid-lane.
TEST(SkylinePinTest, RaggedEnvelopesFactorToPinnedBits) {
  struct Pin {
    int n;
    int max_h;
    const char* factor;
    const char* solution;
  };
  const Pin pins[] = {
      {193, 40, "dc285cd0bf3e119e", "be1933ecb0955028"},  // B = 9
      {150, 54, "646d74347ce226af", "fe417faedd5ba601"},  // last width 6
      {211, 70, "111926a4a9624065", "0abe27d22a08f502"},  // B = 15
  };
  std::set<int> tails;
  bool odd_width = false;
  bool mid_lane = false;
  for (const Pin& pin : pins) {
    std::mt19937 rng(static_cast<unsigned>(pin.n * 31 + pin.max_h));
    const std::vector<int> lows = random_lows(pin.n, pin.max_h, rng);
    const PanelShapes shapes = panel_shapes(lows);
    tails.insert(shapes.candidate_tails.begin(), shapes.candidate_tails.end());
    odd_width |= shapes.B % 4 != 0 || shapes.last_width % 4 != 0;
    mid_lane |= shapes.row_starts_mid_lane;

    SkylineMatrix f = random_spd_skyline(
        lows, pin.max_h, static_cast<unsigned>(pin.n + 3 * pin.max_h));
    ASSERT_GE(f.max_column_height(), 16) << "must take the blocked path";
    std::vector<double> x(static_cast<size_t>(pin.n));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (double& v : x) v = dist(rng);
    f.factorize();
    f.solve(x);
    SCOPED_TRACE("n=" + std::to_string(pin.n) +
                 " max_h=" + std::to_string(pin.max_h));
    expect_pinned(f, x, pin.factor, pin.solution);
  }
  EXPECT_TRUE(tails.count(1) && tails.count(2) && tails.count(3));
  EXPECT_TRUE(odd_width);
  EXPECT_TRUE(mid_lane);
}

// ---- benchmark scale --------------------------------------------------------

// serve's canonical cantilever: plane stress, E = 1000, nu = 0.3, the
// minimum-x node column clamped, a unit downward load at the maximum-x node
// (lowest index on ties).
StaticProblem canonical_cantilever(const mesh::TriMesh& m) {
  StaticProblem p(m, Analysis::kPlaneStress);
  p.set_material(Material::isotropic(1000.0, 0.3));
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
    if (m.pos(n).x == min_x) p.fix(n, true, true);
  }
  p.point_load(tip, {0.0, -1.0});
  return p;
}

// A 104 x 104-cell plate with a 3 x 3 grid of 24 x 24-cell holes and
// 8-cell ligaments, as rectangular unit-cell subdivisions.
idlz::IdlzCase plate_with_holes_case() {
  constexpr int kLig = 8;
  constexpr int kHole = 24;
  constexpr int kWidth = 3 * kHole + 4 * kLig;
  idlz::IdlzCase c;
  c.title = "PLATE WITH HOLES";
  c.options.limits = idlz::Limits::unlimited();
  auto edge = [](int k1, int k2, int l) {
    idlz::ShapeLine line;
    line.k1 = k1;
    line.k2 = k2;
    line.l1 = l;
    line.l2 = l;
    line.p1 = {static_cast<double>(k1 - 1), static_cast<double>(l - 1)};
    line.p2 = {static_cast<double>(k2 - 1), static_cast<double>(l - 1)};
    return line;
  };
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
    spec.lines = {edge(sub.k1, sub.k2, sub.l1), edge(sub.k1, sub.k2, sub.l2)};
    c.shaping.push_back(spec);
  };
  for (int row = 0; row <= 3; ++row) {
    const int y0 = row * (kLig + kHole);
    add(0, kWidth, y0, y0 + kLig);
    if (row == 3) break;
    for (int col = 0; col <= 3; ++col) {
      const int x0 = col * (kLig + kHole);
      add(x0, x0 + kLig, y0 + kLig, y0 + kLig + kHole);
    }
  }
  return c;
}

// Solves the canonical cantilever on an RCM-ordered idealization at 1 and
// 4 threads: the factors and solutions are bit-identical and match their
// pinned digests, and the relative residual ||K u - f|| / ||f|| against an
// unfactorized copy of K is tiny.
void expect_scale_solve(const idlz::IdlzCase& c, const std::string& factor,
                        const std::string& solution) {
  RunOptions ro;
  ro.ordering = OrderingChoice::kRcm;
  const idlz::IdlzResult r = idlz::run(c, ro);
  const StaticProblem p = canonical_cantilever(r.mesh);
  SkylineMatrix k(p.dof_skyline_lows());
  std::vector<double> f;
  p.assemble(k, f);

  SkylineMatrix f1 = k;
  std::vector<double> u1 = f;
  {
    util::ScopedThreads one(1);
    f1.factorize();
    f1.solve(u1);
  }
  SkylineMatrix f4 = k;
  std::vector<double> u4 = f;
  {
    util::ScopedThreads four(4);
    f4.factorize();
    f4.solve(u4);
  }
  ASSERT_EQ(f1.values().size(), f4.values().size());
  size_t factor_diffs = 0;
  for (size_t s = 0; s < f1.values().size(); ++s) {
    factor_diffs += std::bit_cast<std::uint64_t>(f1.values()[s]) !=
                    std::bit_cast<std::uint64_t>(f4.values()[s]);
  }
  EXPECT_EQ(factor_diffs, 0u);
  size_t solution_diffs = 0;
  for (size_t i = 0; i < u1.size(); ++i) {
    solution_diffs += std::bit_cast<std::uint64_t>(u1[i]) !=
                      std::bit_cast<std::uint64_t>(u4[i]);
  }
  EXPECT_EQ(solution_diffs, 0u);
  expect_pinned(f1, u1, factor, solution);

  std::vector<double> ku;
  k.multiply(u1, ku);
  double num = 0.0;
  double den = 0.0;
  for (size_t i = 0; i < f.size(); ++i) {
    num += (ku[i] - f[i]) * (ku[i] - f[i]);
    den += f[i] * f[i];
  }
  EXPECT_LT(std::sqrt(num / den), 1e-10) << "n=" << p.num_dofs();
}

TEST(SkylineScaleTest, StripCantileverResidualAndThreadIdentity) {
  // 60 x 150 cells: 18,422 dofs, a nearly full envelope.
  expect_scale_solve(scenarios::strip_case(60, 150, 10), "90a9e3dc18cfef59",
                     "e87b974dd35e13dc");
}

TEST(SkylineScaleTest, PlateWithHolesResidualAndThreadIdentity) {
  // 12,528 dofs; the holes leave the envelope about half the band.
  expect_scale_solve(plate_with_holes_case(), "cc5399d740bae668",
                     "7d8d5688cc32df06");
}

// ---- the size report and the solve path -------------------------------------

// A long uniform strip: every column is as tall as the band.
mesh::TriMesh strip_mesh(int nx) {
  mesh::TriMesh m;
  for (int i = 0; i <= nx; ++i) {
    m.add_node({static_cast<double>(i), 0.0});
    m.add_node({static_cast<double>(i), 1.0});
  }
  for (int i = 0; i < nx; ++i) {
    const int a = 2 * i, b = 2 * i + 1, c = 2 * i + 2, d = 2 * i + 3;
    m.add_element(a, c, b);
    m.add_element(b, c, d);
  }
  m.orient_ccw();
  return m;
}

// A wide base row with a tall narrow web on top (a T rotated 180°): the
// base rows pin the half-bandwidth near the full width, but the web
// columns are short — the envelope is a fraction of the band.
mesh::TriMesh tower_mesh(int base_w, int web_h) {
  mesh::TriMesh m;
  std::vector<int> row0;
  std::vector<int> row1;
  for (int i = 0; i <= base_w; ++i) {
    row0.push_back(m.add_node({static_cast<double>(i), 0.0}));
  }
  for (int i = 0; i <= base_w; ++i) {
    row1.push_back(m.add_node({static_cast<double>(i), 1.0}));
  }
  for (int i = 0; i < base_w; ++i) {
    m.add_element(row0[static_cast<size_t>(i)], row0[static_cast<size_t>(i) + 1],
                  row1[static_cast<size_t>(i) + 1]);
    m.add_element(row0[static_cast<size_t>(i)], row1[static_cast<size_t>(i) + 1],
                  row1[static_cast<size_t>(i)]);
  }
  // 1-cell-wide web rising from the middle of the base.
  const int wx = base_w / 2;
  int prev_a = row1[static_cast<size_t>(wx)];
  int prev_b = row1[static_cast<size_t>(wx) + 1];
  for (int j = 2; j <= web_h; ++j) {
    const int a = m.add_node({static_cast<double>(wx), static_cast<double>(j)});
    const int b =
        m.add_node({static_cast<double>(wx + 1), static_cast<double>(j)});
    m.add_element(prev_a, prev_b, b);
    m.add_element(prev_a, b, a);
    prev_a = a;
    prev_b = b;
  }
  m.orient_ccw();
  return m;
}

fem::StaticProblem cantilever(const mesh::TriMesh& m) {
  fem::StaticProblem p(m, fem::Analysis::kPlaneStress);
  p.set_material(fem::Material::isotropic(1000.0, 0.3));
  p.fix(0, true, true);
  p.fix(1, true, true);
  p.point_load(m.num_nodes() - 1, {0.0, -1.0});
  return p;
}

TEST(PredictStorageTest, UniformStripEnvelopeNearlyFillsBand) {
  const mesh::TriMesh m = strip_mesh(40);
  const StoragePrediction pred = predict_storage(cantilever(m));
  EXPECT_TRUE(pred.use_skyline);
  EXPECT_GT(pred.band_bytes, 0);
  EXPECT_GT(pred.skyline_bytes, pred.band_bytes - pred.band_bytes / 4);
  EXPECT_LE(pred.skyline_bytes, pred.band_bytes);
}

TEST(PredictStorageTest, WideBaseNarrowWebPicksSkyline) {
  const mesh::TriMesh m = tower_mesh(40, 60);
  const StoragePrediction pred = predict_storage(cantilever(m));
  EXPECT_TRUE(pred.use_skyline);
  EXPECT_LT(pred.skyline_bytes, pred.band_bytes - pred.band_bytes / 4);
}

TEST(StaticSolveTest, BitIdenticalAcrossThreadCounts) {
  const mesh::TriMesh m = tower_mesh(40, 60);
  const fem::StaticProblem p = cantilever(m);
  RunOptions one;
  one.threads = 1;
  RunOptions eight = one;
  eight.threads = 8;
  const StaticSolution u1 = solve(p, one);
  const StaticSolution u8 = solve(p, eight);
  for (int n = 0; n < m.num_nodes(); ++n) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(u1.at(n).x),
              std::bit_cast<std::uint64_t>(u8.at(n).x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(u1.at(n).y),
              std::bit_cast<std::uint64_t>(u8.at(n).y));
  }
}

// ---- factor-cache keying --------------------------------------------------

// One deck idealized under two orderings yields two meshes, so two factor
// keys; idealizing it again under the same ordering hits the cache and
// replays that ordering's factor bit-identically.
TEST(FactorCacheOrderingTest, OrderingsKeySeparatelyAndRepeatsHit) {
  const idlz::IdlzCase c = scenarios::strip_case(8, 24, 3);
  RunOptions none;
  none.ordering = OrderingChoice::kNone;
  RunOptions rcm;
  rcm.ordering = OrderingChoice::kRcm;
  const idlz::IdlzResult r_none = idlz::run(c, none);
  const idlz::IdlzResult r_rcm = idlz::run(c, rcm);
  ASSERT_TRUE(r_rcm.renumbering.applied);
  const StaticProblem p_none = canonical_cantilever(r_none.mesh);
  const StaticProblem p_rcm = canonical_cantilever(r_rcm.mesh);
  EXPECT_FALSE(factor_key(p_none) == factor_key(p_rcm));

  FactorCache cache(8);
  RunOptions cached;
  cached.factor_cache = &cache;
  const StaticSolution cold_none = solve(p_none, cached);
  const StaticSolution cold_rcm = solve(p_rcm, cached);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().entries, 2);

  const idlz::IdlzResult r_again = idlz::run(c, rcm);
  const StaticProblem p_again = canonical_cantilever(r_again.mesh);
  const StaticSolution warm_rcm = solve(p_again, cached);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 2);
  for (int n = 0; n < r_rcm.mesh.num_nodes(); ++n) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cold_rcm.at(n).x),
              std::bit_cast<std::uint64_t>(warm_rcm.at(n).x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cold_rcm.at(n).y),
              std::bit_cast<std::uint64_t>(warm_rcm.at(n).y));
  }
  EXPECT_EQ(cold_none.displacement.size(), cold_rcm.displacement.size());
}

}  // namespace
}  // namespace feio::fem
