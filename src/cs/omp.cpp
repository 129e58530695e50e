#include "ulpdream/cs/omp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ulpdream/linalg/solve.hpp"

namespace ulpdream::cs {

OmpResult omp_solve(const linalg::Matrix& a, const std::vector<double>& y,
                    const OmpConfig& cfg) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (y.size() != m) throw std::invalid_argument("omp_solve: size mismatch");

  OmpResult result;
  result.solution.assign(n, 0.0);
  std::vector<double> residual = y;
  const double y_norm = linalg::norm2(y);
  if (y_norm == 0.0) return result;

  // Least squares on the active set through the ridged normal equations
  // (A_S^T A_S + lambda I) x = A_S^T y, grown by one row per chosen atom:
  // the Gram row, its Cholesky row, the rhs entry and the forward-
  // substitution entry are appended, and only the back substitution runs
  // over the whole set. Every value is computed with the operations, in
  // the order, that linalg::least_squares uses on the same active set, so
  // the result is bit-identical to re-solving from scratch.
  const std::size_t max_k = std::min(cfg.max_atoms, m);
  std::vector<bool> in_support(n, false);
  std::vector<double> active(max_k * m);  // column c at active[c * m]
  std::vector<double> chol(max_k * max_k);  // lower factor, rows max_k apart
  std::vector<double> fwd(max_k);
  std::vector<double> coeffs;
  // A non-positive pivot leaves the leading block of every later Gram
  // unfactorable too, so from then on least_squares (with its ridge
  // retry) solves each active set from scratch, as before.
  bool factored = true;

  for (std::size_t k = 0; k < max_k; ++k) {
    // Correlation step: strongest remaining atom.
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

    const std::size_t size = k + 1;
    double* col = &active[k * m];
    for (std::size_t r = 0; r < m; ++r) col[r] = a.at(r, best);

    // Rhs entry, in Matrix::multiply_transposed's order.
    double rhs = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
      if (y[r] == 0.0) continue;
      rhs += y[r] * col[r];
    }

    if (factored) {
      double* row = &chol[k * max_k];
      for (std::size_t j = 0; j <= k; ++j) {
        const double* other = &active[j * m];
        double acc = 0.0;
        for (std::size_t r = 0; r < m; ++r) acc += other[r] * col[r];
        row[j] = acc;
      }
      row[k] += linalg::kLeastSquaresRidge;
      factored = linalg::cholesky_append_row(chol.data(), max_k, k);
    }
    if (factored) {
      fwd[k] = linalg::forward_substitute_row(chol.data(), max_k, k,
                                              fwd.data(), rhs);
      coeffs.assign(size, 0.0);
      linalg::back_substitute(chol.data(), max_k, size, fwd.data(),
                              coeffs.data());
    } else {
      linalg::Matrix gathered(m, size);
      for (std::size_t c = 0; c < size; ++c) {
        for (std::size_t r = 0; r < m; ++r) {
          gathered.at(r, c) = active[c * m + r];
        }
      }
      coeffs = linalg::least_squares(gathered, y);
    }

    // Residual update.
    residual = y;
    for (std::size_t c = 0; c < size; ++c) {
      const double* atom = &active[c * m];
      for (std::size_t r = 0; r < m; ++r) residual[r] -= coeffs[c] * atom[r];
    }
    result.iterations = size;
    result.residual_norm = linalg::norm2(residual);
    if (result.residual_norm / y_norm < cfg.residual_tol) break;
  }

  for (std::size_t c = 0; c < result.support.size(); ++c) {
    result.solution[result.support[c]] = coeffs.empty() ? 0.0 : coeffs[c];
  }
  return result;
}

}  // namespace ulpdream::cs
