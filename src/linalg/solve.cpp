#include "ulpdream/linalg/solve.hpp"

#include <cmath>
#include <stdexcept>

namespace ulpdream::linalg {

bool cholesky_append_row(double* l, std::size_t stride, std::size_t k) {
  double* row = l + k * stride;
  for (std::size_t j = 0; j < k; ++j) {
    const double* prev = l + j * stride;
    double v = row[j];
    for (std::size_t q = 0; q < j; ++q) v -= row[q] * prev[q];
    row[j] = v / prev[j];
  }
  double diag = row[k];
  for (std::size_t q = 0; q < k; ++q) diag -= row[q] * row[q];
  if (diag <= 0.0) return false;
  row[k] = std::sqrt(diag);
  return true;
}

double forward_substitute_row(const double* l, std::size_t stride,
                              std::size_t k, const double* z, double b) {
  const double* row = l + k * stride;
  double acc = b;
  for (std::size_t q = 0; q < k; ++q) acc -= row[q] * z[q];
  return acc / row[k];
}

void back_substitute(const double* l, std::size_t stride, std::size_t n,
                     const double* z, double* x) {
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = z[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= l[k * stride + ii] * x[k];
    x[ii] = acc / l[ii * stride + ii];
  }
}

bool cholesky(Matrix& a) {
  const std::size_t n = a.rows();
  if (a.cols() != n) return false;
  for (std::size_t k = 0; k < n; ++k) {
    if (!cholesky_append_row(a.data().data(), n, k)) return false;
    for (std::size_t c = k + 1; c < n; ++c) a.at(k, c) = 0.0;
  }
  return true;
}

std::vector<double> cholesky_solve(const Matrix& l,
                                   const std::vector<double>& b) {
  const std::size_t n = l.rows();
  if (b.size() != n) {
    throw std::invalid_argument("cholesky_solve: size mismatch");
  }
  const double* factor = l.data().data();
  std::vector<double> z(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    z[i] = forward_substitute_row(factor, l.cols(), i, z.data(), b[i]);
  }
  std::vector<double> x(n, 0.0);
  back_substitute(factor, l.cols(), n, z.data(), x.data());
  return x;
}

std::vector<double> solve_spd(Matrix a, const std::vector<double>& b) {
  Matrix attempt = a;
  if (!cholesky(attempt)) {
    // Retry with a relative ridge before giving up.
    double trace = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) trace += a.at(i, i);
    const double ridge =
        1e-10 * (trace > 0.0 ? trace / static_cast<double>(a.rows()) : 1.0);
    attempt = a;
    for (std::size_t i = 0; i < a.rows(); ++i) attempt.at(i, i) += ridge;
    if (!cholesky(attempt)) {
      throw std::runtime_error("solve_spd: matrix not positive definite");
    }
  }
  return cholesky_solve(attempt, b);
}

std::vector<double> least_squares(const Matrix& m,
                                  const std::vector<double>& y,
                                  double lambda) {
  // Normal equations: (M^T M + lambda I) x = M^T y.
  const std::size_t n = m.cols();
  Matrix gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t r = 0; r < m.rows(); ++r) {
        acc += m.at(r, i) * m.at(r, j);
      }
      gram.at(i, j) = acc;
      gram.at(j, i) = acc;
    }
    gram.at(i, i) += lambda;
  }
  const std::vector<double> rhs = m.multiply_transposed(y);
  return solve_spd(gram, rhs);
}

}  // namespace ulpdream::linalg
