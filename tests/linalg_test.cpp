#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "ulpdream/linalg/matrix.hpp"
#include "ulpdream/linalg/solve.hpp"
#include "ulpdream/util/rng.hpp"

namespace ulpdream::linalg {
namespace {

TEST(Matrix, IdentityMultiplication) {
  const Matrix id = Matrix::identity(4);
  Matrix a(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      a.at(r, c) = static_cast<double>(r * 4 + c);
    }
  }
  const Matrix prod = id.multiply(a);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(prod.at(r, c), a.at(r, c));
    }
  }
}

TEST(Matrix, MultiplyKnownValues) {
  Matrix a(2, 3);
  a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(0, 2) = 3;
  a.at(1, 0) = 4; a.at(1, 1) = 5; a.at(1, 2) = 6;
  const std::vector<double> v = {1.0, 0.0, -1.0};
  const std::vector<double> out = a.multiply(v);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], -2.0);
  EXPECT_DOUBLE_EQ(out[1], -2.0);
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a.multiply(b), std::invalid_argument);
  EXPECT_THROW(a.multiply(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix a(3, 2);
  a.at(0, 0) = 1; a.at(2, 1) = 7;
  const Matrix t = a.transpose();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(1, 2), 7.0);
}

TEST(Matrix, MultiplyTransposedMatchesExplicit) {
  util::Xoshiro256 rng(3);
  Matrix a(5, 7);
  for (auto& v : a.data()) v = rng.gaussian();
  std::vector<double> y(5);
  for (auto& v : y) v = rng.gaussian();
  const std::vector<double> fast = a.multiply_transposed(y);
  const std::vector<double> slow = a.transpose().multiply(y);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-12);
  }
}

TEST(Matrix, ColumnExtraction) {
  Matrix a(3, 2);
  a.at(0, 1) = 5; a.at(1, 1) = 6; a.at(2, 1) = 7;
  const std::vector<double> col = a.column(1);
  EXPECT_EQ(col, (std::vector<double>{5.0, 6.0, 7.0}));
  EXPECT_THROW(a.column(2), std::out_of_range);
}

TEST(VectorOps, DotNormAxpy) {
  const std::vector<double> a = {1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 9.0);
  EXPECT_DOUBLE_EQ(norm2(a), 3.0);
  std::vector<double> acc = {1.0, 1.0, 1.0};
  axpy(2.0, a, acc);
  EXPECT_EQ(acc, (std::vector<double>{3.0, 5.0, 5.0}));
}

TEST(Cholesky, FactorizesKnownSpd) {
  Matrix a(2, 2);
  a.at(0, 0) = 4; a.at(0, 1) = 2;
  a.at(1, 0) = 2; a.at(1, 1) = 3;
  ASSERT_TRUE(cholesky(a));
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
  EXPECT_NEAR(a.at(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2);
  a.at(0, 0) = 1; a.at(0, 1) = 2;
  a.at(1, 0) = 2; a.at(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky(a));
}

// The column-by-column sweep cholesky() ran before it was built on
// cholesky_append_row; row appends must reproduce it bit for bit.
bool column_sweep_cholesky(Matrix& a) {
  const std::size_t n = a.rows();
  if (a.cols() != n) return false;
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a.at(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= a.at(j, k) * a.at(j, k);
    if (diag <= 0.0) return false;
    const double ljj = std::sqrt(diag);
    a.at(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a.at(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= a.at(i, k) * a.at(j, k);
      a.at(i, j) = v / ljj;
    }
    for (std::size_t c = j + 1; c < n; ++c) a.at(j, c) = 0.0;
  }
  return true;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

Matrix random_gram(std::size_t n, std::size_t rank, double ridge,
                   util::Xoshiro256& rng) {
  Matrix m(rank, n);
  for (auto& v : m.data()) v = rng.gaussian();
  Matrix a = m.transpose().multiply(m);
  for (std::size_t i = 0; i < n; ++i) a.at(i, i) += ridge;
  return a;
}

TEST(Cholesky, RowAppendMatchesColumnSweepBitForBit) {
  struct Case {
    std::size_t rank;
    double ridge;
  };
  util::Xoshiro256 rng(2024);
  int accepted = 0;
  int rejected = 0;
  for (std::size_t n = 1; n <= 40; ++n) {
    // Full rank with OMP's ridge, and exactly rank-deficient with none,
    // whose late pivots are rounding noise of either sign.
    for (const Case c : {Case{n + 3, 1e-9}, Case{n / 2 + 1, 0.0}}) {
      const Matrix a = random_gram(n, c.rank, c.ridge, rng);
      Matrix want = a;
      Matrix got = a;
      const bool want_ok = column_sweep_cholesky(want);
      SCOPED_TRACE("n " + std::to_string(n) + " rank " +
                   std::to_string(c.rank));
      ASSERT_EQ(cholesky(got), want_ok);
      if (want_ok) {
        EXPECT_TRUE(same_bits(got, want));
        ++accepted;
      } else {
        ++rejected;
      }
    }
  }
  EXPECT_GT(accepted, 40);
  EXPECT_GT(rejected, 0);
}

TEST(Cholesky, RowAppendRejectsIndefiniteLikeColumnSweep) {
  util::Xoshiro256 rng(7);
  for (std::size_t n = 2; n <= 24; ++n) {
    Matrix a = random_gram(n, n + 2, 0.0, rng);
    // Push one late diagonal entry negative: the leading block stays SPD,
    // so the failure is found only at that pivot.
    a.at(n - 1, n - 1) = -1.0;
    Matrix want = a;
    Matrix got = a;
    EXPECT_FALSE(column_sweep_cholesky(want));
    EXPECT_FALSE(cholesky(got));
  }
}

TEST(Cholesky, GrownRowByRowEqualsFullFactor) {
  // OMP grows its factor in a buffer wider than the active set; the
  // leading block of a left-looking factor depends only on the leading
  // block of the matrix, so each prefix equals the full factorization.
  util::Xoshiro256 rng(31);
  const std::size_t n = 12;
  const std::size_t stride = 20;
  const Matrix a = random_gram(n, n + 4, 1e-9, rng);
  std::vector<double> grown(stride * stride, 0.0);
  std::vector<double> z(n, 0.0);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.gaussian();
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j <= k; ++j) grown[k * stride + j] = a.at(k, j);
    ASSERT_TRUE(cholesky_append_row(grown.data(), stride, k));
    z[k] = forward_substitute_row(grown.data(), stride, k, z.data(), b[k]);

    Matrix lead(k + 1, k + 1);
    for (std::size_t i = 0; i <= k; ++i) {
      for (std::size_t j = 0; j <= k; ++j) lead.at(i, j) = a.at(i, j);
    }
    ASSERT_TRUE(cholesky(lead));
    for (std::size_t i = 0; i <= k; ++i) {
      EXPECT_EQ(std::memcmp(&grown[i * stride], &lead.data()[i * (k + 1)],
                            (i + 1) * sizeof(double)),
                0);
    }
    std::vector<double> x(k + 1);
    back_substitute(grown.data(), stride, k + 1, z.data(), x.data());
    const std::vector<double> prefix(b.begin(), b.begin() + lead.rows());
    const std::vector<double> want = cholesky_solve(lead, prefix);
    EXPECT_EQ(std::memcmp(x.data(), want.data(), x.size() * sizeof(double)),
              0);
  }
}

TEST(Solve, SpdSolveMatchesKnownSolution) {
  Matrix a(3, 3);
  // A = M^T M + I for a random M: guaranteed SPD.
  util::Xoshiro256 rng(11);
  Matrix m(3, 3);
  for (auto& v : m.data()) v = rng.gaussian();
  const Matrix mt = m.transpose();
  a = mt.multiply(m);
  for (std::size_t i = 0; i < 3; ++i) a.at(i, i) += 1.0;

  const std::vector<double> x_true = {1.0, -2.0, 0.5};
  const std::vector<double> b = a.multiply(x_true);
  const std::vector<double> x = solve_spd(a, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Solve, LeastSquaresExactForSquareSystem) {
  Matrix a(2, 2);
  a.at(0, 0) = 2; a.at(0, 1) = 1;
  a.at(1, 0) = 1; a.at(1, 1) = 3;
  const std::vector<double> x_true = {1.5, -0.5};
  const std::vector<double> y = a.multiply(x_true);
  const std::vector<double> x = least_squares(a, y);
  EXPECT_NEAR(x[0], x_true[0], 1e-6);
  EXPECT_NEAR(x[1], x_true[1], 1e-6);
}

TEST(Solve, LeastSquaresOverdetermined) {
  // Fit y = 2t + 1 from noisy-free overdetermined samples.
  const std::size_t n = 10;
  Matrix a(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    a.at(i, 0) = t;
    a.at(i, 1) = 1.0;
    y[i] = 2.0 * t + 1.0;
  }
  const std::vector<double> x = least_squares(a, y);
  EXPECT_NEAR(x[0], 2.0, 1e-8);
  EXPECT_NEAR(x[1], 1.0, 1e-7);
}

class CholeskySizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(CholeskySizeSweep, SolveRecoversRandomSolution) {
  const auto n = static_cast<std::size_t>(GetParam());
  util::Xoshiro256 rng(100 + static_cast<std::uint64_t>(GetParam()));
  Matrix m(n, n);
  for (auto& v : m.data()) v = rng.gaussian();
  Matrix a = m.transpose().multiply(m);
  for (std::size_t i = 0; i < n; ++i) a.at(i, i) += static_cast<double>(n);
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.gaussian();
  const std::vector<double> x = solve_spd(a, a.multiply(x_true));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizeSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32, 64));

}  // namespace
}  // namespace ulpdream::linalg
