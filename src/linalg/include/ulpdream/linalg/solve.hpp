#pragma once
// Solvers backing the OMP least-squares step: Cholesky on the (always SPD
// after regularization) Gram matrix, plus a general least-squares helper.

#include <vector>

#include "ulpdream/linalg/matrix.hpp"

namespace ulpdream::linalg {

// Row-at-a-time kernels on a row-major lower factor L whose rows lie
// `stride` doubles apart. The factorization is left-looking, so row k of
// L depends only on rows 0..k of the SPD matrix: a solver whose system
// grows by one row and column (OMP's active set) extends its factor in
// O(k^2) instead of refactoring in O(k^3). cholesky() and
// cholesky_solve() are built on these kernels, so a grown factor and its
// solutions are bit-identical to solving the whole system at once.

/// Factors row `k` in place: on entry l[k*stride + 0..k] holds row k of
/// the SPD matrix up to the diagonal, and rows 0..k-1 hold L; on exit it
/// holds L(k, 0..k). Entries right of the diagonal are not touched.
/// Returns false on a non-positive pivot (row k is then garbage).
[[nodiscard]] bool cholesky_append_row(double* l, std::size_t stride,
                                       std::size_t k);

/// Entry k of the forward substitution L z = b, given z[0..k-1].
[[nodiscard]] double forward_substitute_row(const double* l,
                                            std::size_t stride, std::size_t k,
                                            const double* z, double b);

/// Back substitution L^T x = z over the leading n x n block.
void back_substitute(const double* l, std::size_t stride, std::size_t n,
                     const double* z, double* x);

/// In-place lower Cholesky factorization of an SPD matrix (only the lower
/// triangle is read; the upper one is zeroed).
/// Returns false if the matrix is not (numerically) positive definite.
[[nodiscard]] bool cholesky(Matrix& a);

/// Solves A x = b given a lower-triangular Cholesky factor (forward +
/// backward substitution).
[[nodiscard]] std::vector<double> cholesky_solve(const Matrix& chol_lower,
                                                 const std::vector<double>& b);

/// Solves the dense SPD system A x = b. Throws std::runtime_error if A is
/// not positive definite even after a small diagonal ridge is applied.
[[nodiscard]] std::vector<double> solve_spd(Matrix a,
                                            const std::vector<double>& b);

/// Default ridge of least_squares (added to the Gram's diagonal).
inline constexpr double kLeastSquaresRidge = 1e-9;

/// Least squares: minimizes ||M x - y||_2 via normal equations with ridge
/// regularization `lambda` (suitable for the small, well-conditioned
/// subproblems inside OMP).
[[nodiscard]] std::vector<double> least_squares(
    const Matrix& m, const std::vector<double>& y,
    double lambda = kLeastSquaresRidge);

}  // namespace ulpdream::linalg
