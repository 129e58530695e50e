#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "ulpdream/cs/omp.hpp"
#include "ulpdream/cs/reconstruct.hpp"
#include "ulpdream/cs/sensing_matrix.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/linalg/solve.hpp"
#include "ulpdream/metrics/quality.hpp"
#include "ulpdream/util/rng.hpp"

namespace ulpdream::cs {
namespace {

TEST(SensingMatrix, SparseBinaryColumnStructure) {
  const linalg::Matrix phi = sparse_binary_matrix(32, 64, 4, 7);
  const double expected = 1.0 / 2.0;  // 1/sqrt(4)
  for (std::size_t c = 0; c < 64; ++c) {
    int nonzero = 0;
    for (std::size_t r = 0; r < 32; ++r) {
      if (phi.at(r, c) != 0.0) {
        ++nonzero;
        EXPECT_DOUBLE_EQ(phi.at(r, c), expected);
      }
    }
    EXPECT_EQ(nonzero, 4);
  }
}

TEST(SensingMatrix, SparseBinaryRejectsBadDensity) {
  EXPECT_THROW(sparse_binary_matrix(4, 8, 5, 1), std::invalid_argument);
  EXPECT_THROW(sparse_binary_matrix(4, 8, 0, 1), std::invalid_argument);
}

TEST(SensingMatrix, BernoulliEntriesHaveCorrectMagnitude) {
  const linalg::Matrix phi = bernoulli_matrix(16, 32, 3);
  const double mag = 1.0 / 4.0;
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < 32; ++c) {
      EXPECT_DOUBLE_EQ(std::fabs(phi.at(r, c)), mag);
    }
  }
}

TEST(SensingMatrix, SparsePhiDenseEquivalence) {
  const SparsePhi phi = make_sparse_phi(32, 64, 4, 11);
  const linalg::Matrix dense = phi.to_dense();
  // Column sums: d entries of 1/d each -> 1.
  for (std::size_t c = 0; c < 64; ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < 32; ++r) sum += dense.at(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(SensingMatrix, SparsePhiRowsDistinctPerColumn) {
  const SparsePhi phi = make_sparse_phi(16, 32, 4, 13);
  for (std::size_t c = 0; c < 32; ++c) {
    for (int a = 0; a < 4; ++a) {
      for (int b = a + 1; b < 4; ++b) {
        EXPECT_NE(phi.rows[c * 4 + static_cast<std::size_t>(a)],
                  phi.rows[c * 4 + static_cast<std::size_t>(b)]);
      }
    }
  }
}

TEST(SensingMatrix, SparsePhiRejectsNonPowerOfTwo) {
  EXPECT_THROW(make_sparse_phi(16, 32, 3, 1), std::invalid_argument);
}

TEST(Omp, RecoversExactlySparseSignal) {
  // Classic CS sanity: K-sparse alpha, enough Bernoulli measurements ->
  // OMP recovers support and values almost exactly.
  const std::size_t n = 64;
  const std::size_t m = 32;
  const std::size_t k = 5;
  const linalg::Matrix a = bernoulli_matrix(m, n, 21);
  util::Xoshiro256 rng(22);
  std::vector<double> alpha(n, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    alpha[rng.bounded(n)] = rng.gaussian(0.0, 10.0) + 5.0;
  }
  const std::vector<double> y = a.multiply(alpha);

  OmpConfig cfg;
  cfg.max_atoms = 10;
  const OmpResult res = omp_solve(a, y, cfg);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(res.solution[i], alpha[i], 1e-6);
  }
  EXPECT_LT(res.residual_norm, 1e-6 * linalg::norm2(y));
}

TEST(Omp, ZeroMeasurementGivesZeroSolution) {
  const linalg::Matrix a = bernoulli_matrix(8, 16, 1);
  const std::vector<double> y(8, 0.0);
  const OmpResult res = omp_solve(a, y, OmpConfig{});
  for (double v : res.solution) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_TRUE(res.support.empty());
}

TEST(Omp, RespectsAtomBudget) {
  const linalg::Matrix a = bernoulli_matrix(32, 64, 5);
  util::Xoshiro256 rng(6);
  std::vector<double> y(32);
  for (auto& v : y) v = rng.gaussian();
  OmpConfig cfg;
  cfg.max_atoms = 7;
  const OmpResult res = omp_solve(a, y, cfg);
  EXPECT_LE(res.support.size(), 7u);
}

TEST(Omp, SizeMismatchThrows) {
  const linalg::Matrix a = bernoulli_matrix(8, 16, 1);
  EXPECT_THROW(omp_solve(a, std::vector<double>(7, 0.0), OmpConfig{}),
               std::invalid_argument);
}

TEST(Reconstructor, RejectsBadGeometry) {
  CsConfig cfg;
  cfg.block_n = 64;
  cfg.block_m = 128;  // m > n
  EXPECT_THROW(CsReconstructor{cfg}, std::invalid_argument);
}

TEST(Reconstructor, RecoversEcgBlockAboveRequirement) {
  // End-to-end float pipeline: compress a real synthetic ECG block and
  // reconstruct. Quality should clear the paper's 35 dB multi-lead
  // requirement on typical blocks... at 50% compression our single-lead
  // OMP ceiling is lower; we require a solid 15 dB here and track the
  // exact ceiling in EXPERIMENTS.md.
  const ecg::Record rec = ecg::make_default_record(3);
  CsConfig cfg;
  cfg.block_n = 256;
  cfg.block_m = 128;
  cfg.omp.max_atoms = 64;
  const CsReconstructor recon(cfg);

  std::vector<double> x(cfg.block_n);
  for (std::size_t i = 0; i < cfg.block_n; ++i) {
    x[i] = static_cast<double>(rec.samples[i]);
  }
  const std::vector<double> y = recon.phi().to_dense().multiply(x);
  const std::vector<double> xhat = recon.reconstruct(y);
  EXPECT_GT(metrics::snr_db(x, xhat), 15.0);
}

TEST(Reconstructor, WrongMeasurementSizeThrows) {
  CsConfig cfg;
  cfg.block_n = 64;
  cfg.block_m = 32;
  const CsReconstructor recon(cfg);
  EXPECT_THROW(recon.reconstruct(std::vector<double>(31, 0.0)),
               std::invalid_argument);
}

TEST(Reconstructor, CorruptedMeasurementsDegradeQuality) {
  const ecg::Record rec = ecg::make_default_record(4);
  CsConfig cfg;
  cfg.block_n = 256;
  cfg.block_m = 128;
  cfg.omp.max_atoms = 48;
  const CsReconstructor recon(cfg);

  std::vector<double> x(cfg.block_n);
  for (std::size_t i = 0; i < cfg.block_n; ++i) {
    x[i] = static_cast<double>(rec.samples[i]);
  }
  std::vector<double> y = recon.phi().to_dense().multiply(x);
  const std::vector<double> clean = recon.reconstruct(y);

  // Corrupt a few measurements as a stuck-at MSB would.
  y[3] += 8000.0;
  y[77] -= 8000.0;
  const std::vector<double> dirty = recon.reconstruct(y);

  EXPECT_GT(metrics::snr_db(x, clean), metrics::snr_db(x, dirty));
}

class OmpSparsitySweep : public ::testing::TestWithParam<int> {};

TEST_P(OmpSparsitySweep, RecoveryDegradesGracefullyWithK) {
  const std::size_t n = 128;
  const std::size_t m = 64;
  const auto k = static_cast<std::size_t>(GetParam());
  const linalg::Matrix a = bernoulli_matrix(m, n, 31);
  util::Xoshiro256 rng(100 + static_cast<std::uint64_t>(GetParam()));
  std::vector<double> alpha(n, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t pos = rng.bounded(n);
    while (alpha[pos] != 0.0) pos = (pos + 1) % n;
    alpha[pos] = rng.gaussian(0.0, 5.0) + 2.0;
  }
  const std::vector<double> y = a.multiply(alpha);
  OmpConfig cfg;
  cfg.max_atoms = 2 * k;
  const OmpResult res = omp_solve(a, y, cfg);
  // Well below the m/2 phase-transition, recovery is essentially exact.
  if (k <= 12) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(res.solution[i], alpha[i], 1e-5);
    }
  } else {
    // Near/over the limit we only require the residual to shrink.
    EXPECT_LT(res.residual_norm, linalg::norm2(y));
  }
}

INSTANTIATE_TEST_SUITE_P(Sparsity, OmpSparsitySweep,
                         ::testing::Values(1, 2, 4, 8, 12, 20, 28));

// ---------------------------------------------------------------------------
// Bit-for-bit regression of omp_solve against the solver it replaced, which
// copied the active dictionary and re-solved the normal equations with
// linalg::least_squares from scratch on every iteration.

OmpResult reference_omp_solve(const linalg::Matrix& a,
                              const std::vector<double>& y,
                              const OmpConfig& cfg) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (y.size() != m) throw std::invalid_argument("omp_solve: size mismatch");

  OmpResult result;
  result.solution.assign(n, 0.0);
  std::vector<double> residual = y;
  const double y_norm = linalg::norm2(y);
  if (y_norm == 0.0) return result;

  std::vector<bool> in_support(n, false);
  linalg::Matrix active(m, 0);
  std::vector<double> coeffs;

  for (std::size_t it = 0; it < cfg.max_atoms && it < m; ++it) {
    const std::vector<double> corr = a.multiply_transposed(residual);
    std::size_t best = n;
    double best_mag = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (in_support[c]) continue;
      const double mag = std::fabs(corr[c]);
      if (mag > best_mag) {
        best_mag = mag;
        best = c;
      }
    }
    if (best == n || best_mag < 1e-14) break;
    in_support[best] = true;
    result.support.push_back(best);

    linalg::Matrix grown(m, result.support.size());
    for (std::size_t c = 0; c + 1 < result.support.size(); ++c) {
      for (std::size_t r = 0; r < m; ++r) grown.at(r, c) = active.at(r, c);
    }
    {
      const std::vector<double> col = a.column(best);
      for (std::size_t r = 0; r < m; ++r) {
        grown.at(r, result.support.size() - 1) = col[r];
      }
    }
    active = std::move(grown);

    coeffs = linalg::least_squares(active, y);

    residual = y;
    for (std::size_t c = 0; c < result.support.size(); ++c) {
      for (std::size_t r = 0; r < m; ++r) {
        residual[r] -= coeffs[c] * active.at(r, c);
      }
    }
    result.iterations = it + 1;
    result.residual_norm = linalg::norm2(residual);
    if (result.residual_norm / y_norm < cfg.residual_tol) break;
  }

  for (std::size_t c = 0; c < result.support.size(); ++c) {
    result.solution[result.support[c]] = coeffs.empty() ? 0.0 : coeffs[c];
  }
  return result;
}

void expect_bit_identical(const linalg::Matrix& a, const std::vector<double>& y,
                          const OmpConfig& cfg) {
  const OmpResult want = reference_omp_solve(a, y, cfg);
  const OmpResult got = omp_solve(a, y, cfg);
  ASSERT_EQ(got.solution.size(), want.solution.size());
  EXPECT_EQ(std::memcmp(got.solution.data(), want.solution.data(),
                        want.solution.size() * sizeof(double)),
            0);
  EXPECT_EQ(got.support, want.support);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.residual_norm),
            std::bit_cast<std::uint64_t>(want.residual_norm));
}

linalg::Matrix gaussian_dictionary(std::size_t m, std::size_t n,
                                   std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  linalg::Matrix a(m, n);
  for (double& v : a.data()) v = rng.gaussian();
  return a;
}

std::vector<double> gaussian_vector(std::size_t m, util::Xoshiro256& rng) {
  std::vector<double> y(m);
  for (double& v : y) v = rng.gaussian(0.0, 100.0);
  return y;
}

/// Number of active sets along `support` whose ridged Gram (as
/// least_squares builds it) linalg::cholesky rejects.
int failed_factorizations(const linalg::Matrix& a,
                          const std::vector<std::size_t>& support) {
  int failed = 0;
  for (std::size_t k = 1; k <= support.size(); ++k) {
    linalg::Matrix gram(k, k);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = i; j < k; ++j) {
        double acc = 0.0;
        for (std::size_t r = 0; r < a.rows(); ++r) {
          acc += a.at(r, support[i]) * a.at(r, support[j]);
        }
        gram.at(i, j) = acc;
        gram.at(j, i) = acc;
      }
      gram.at(i, i) += linalg::kLeastSquaresRidge;
    }
    if (!linalg::cholesky(gram)) ++failed;
  }
  return failed;
}

TEST(OmpBitIdentity, CsDictionaryWithEcgMeasurements) {
  CsConfig cfg;
  cfg.omp.max_atoms = 64;
  const CsReconstructor recon(cfg);
  const linalg::Matrix& a = recon.dictionary();
  ASSERT_EQ(a.rows(), 128u);
  ASSERT_EQ(a.cols(), 256u);
  const linalg::Matrix phi = recon.phi().to_dense();
  util::Xoshiro256 faults(77);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const ecg::Record rec = ecg::make_default_record(seed);
    for (std::size_t block = 0; block < 3; ++block) {
      std::vector<double> x(cfg.block_n);
      for (std::size_t i = 0; i < cfg.block_n; ++i) {
        x[i] = static_cast<double>(rec.samples[block * cfg.block_n + i]);
      }
      // The app stores y as 16-bit words, so model it on the integers.
      std::vector<double> y = phi.multiply(x);
      for (double& v : y) v = std::nearbyint(v);
      SCOPED_TRACE("record " + std::to_string(seed) + " block " +
                   std::to_string(block));
      expect_bit_identical(a, y, cfg.omp);

      // Faulty memory: flip high-order bits of a few stored words.
      std::vector<double> corrupt = y;
      for (int f = 0; f < 6; ++f) {
        const std::size_t r = faults.bounded(corrupt.size());
        const auto word = static_cast<std::uint16_t>(
            static_cast<std::int16_t>(corrupt[r]));
        const auto bit = static_cast<unsigned>(10 + faults.bounded(6));
        corrupt[r] = static_cast<double>(static_cast<std::int16_t>(
            static_cast<std::uint16_t>(word ^ (1u << bit))));
      }
      expect_bit_identical(a, corrupt, cfg.omp);
    }
  }
}

TEST(OmpBitIdentity, GaussianDictionaries) {
  struct Shape {
    std::size_t m, n, max_atoms;
  };
  for (const Shape shape : {Shape{16, 32, 16}, Shape{32, 64, 24},
                            Shape{64, 128, 64}, Shape{48, 200, 100}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const linalg::Matrix a = gaussian_dictionary(shape.m, shape.n, seed);
      util::Xoshiro256 rng(seed * 1000 + shape.m);
      OmpConfig cfg;
      cfg.max_atoms = shape.max_atoms;
      SCOPED_TRACE(std::to_string(shape.m) + "x" + std::to_string(shape.n) +
                   " seed " + std::to_string(seed));
      expect_bit_identical(a, gaussian_vector(shape.m, rng), cfg);

      // An exactly sparse y, which stops on the residual tolerance.
      std::vector<double> alpha(shape.n, 0.0);
      for (int i = 0; i < 5; ++i) alpha[rng.bounded(shape.n)] = rng.gaussian();
      expect_bit_identical(a, a.multiply(alpha), cfg);
    }
  }
}

TEST(OmpBitIdentity, ExactZerosInMeasurement) {
  // multiply_transposed skips y[r] == 0.0 (either sign) when it builds the
  // rhs; measurements with exact zeros must still come out bit-identical.
  const linalg::Matrix a = gaussian_dictionary(32, 64, 9);
  util::Xoshiro256 rng(10);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> y = gaussian_vector(32, rng);
    for (std::size_t r = 0; r < y.size(); r += 2 + rng.bounded(3)) {
      y[r] = rng.bernoulli(0.5) ? 0.0 : -0.0;
    }
    ASSERT_GT(std::count(y.begin(), y.end(), 0.0), 5);
    expect_bit_identical(a, y, OmpConfig{});
  }
}

TEST(OmpBitIdentity, AtomBudgetHit) {
  const linalg::Matrix a = gaussian_dictionary(64, 128, 11);
  util::Xoshiro256 rng(12);
  for (const std::size_t budget : {1u, 2u, 7u, 30u}) {
    OmpConfig cfg;
    cfg.max_atoms = budget;
    const std::vector<double> y = gaussian_vector(64, rng);
    ASSERT_EQ(omp_solve(a, y, cfg).iterations, budget);
    expect_bit_identical(a, y, cfg);
  }
}

TEST(OmpBitIdentity, FailedPivotFallsBackToRidgedLeastSquares) {
  // Large-norm columns with near-duplicates: once OMP has spent the
  // independent atoms it picks a near-copy, and the ridged Gram of that
  // active set has a non-positive pivot in floating point, so the solver
  // must hand the set to least_squares and its trace-relative ridge.
  const std::size_t m = 16;
  int total_failed = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Xoshiro256 rng(seed);
    const std::size_t base = 4;
    linalg::Matrix a(m, 2 * base);
    for (std::size_t c = 0; c < base; ++c) {
      for (std::size_t r = 0; r < m; ++r) {
        const double v = 1e8 * rng.gaussian();
        a.at(r, c) = v;
        a.at(r, base + c) = v + 1e-3 * rng.gaussian();
      }
    }
    const std::vector<double> y = gaussian_vector(m, rng);
    const OmpResult res = reference_omp_solve(a, y, OmpConfig{});
    total_failed += failed_factorizations(a, res.support);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_bit_identical(a, y, OmpConfig{});
  }
  EXPECT_GT(total_failed, 0) << "no active set needed the ridge retry";
}


}  // namespace
}  // namespace ulpdream::cs
