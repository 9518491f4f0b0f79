#include "ftl/linalg/cg.hpp"

#include <cmath>

#include "ftl/util/error.hpp"

namespace ftl::linalg {

CgResult conjugate_gradient(const SparseMatrix& a, const Vector& b,
                            const Vector& initial, const CgOptions& options) {
  FTL_EXPECTS(a.rows() == a.cols() && b.size() == a.rows());
  const std::size_t n = b.size();

  CgResult result;
  result.x = initial.empty() ? Vector(n, 0.0) : initial;
  FTL_EXPECTS(result.x.size() == n);

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    result.x.assign(n, 0.0);
    result.converged = true;
    return result;
  }

  Vector inv_diag = a.diagonal();
  for (double& d : inv_diag) d = (d != 0.0) ? 1.0 / d : 1.0;

  Vector r = b;
  {
    const Vector ax = a.multiply(result.x);
    for (std::size_t i = 0; i < n; ++i) r[i] -= ax[i];
  }
  Vector z(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
  Vector p = z;
  double rz = dot(r, z);

  // Three passes over the vectors per iteration instead of one per textbook
  // step. Every sum keeps its index order and every update its expression,
  // so x, the iteration count and the residual are bitwise those of the
  // unfused loop (Cg.FusedIterationMatchesTextbookLoopBitwise).
  const CsrView csr = a.view();
  Vector ap(n);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // ap = A p, and p . ap, row by row.
    double pap = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t k = csr.row_start[i]; k < csr.row_start[i + 1]; ++k) {
        acc += csr.values[k] * p[csr.col_index[k]];
      }
      ap[i] = acc;
      pap += p[i] * acc;
    }
    if (pap <= 0.0) break;  // not SPD (or breakdown) — report non-convergence
    const double alpha = rz / pap;
    // x and r updates with r . r, the Jacobi step z and r . z.
    double rr = 0.0;
    double rz_next = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      result.x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
      rr += r[i] * r[i];
      z[i] = inv_diag[i] * r[i];
      rz_next += r[i] * z[i];
    }
    result.relative_residual = std::sqrt(rr) / bnorm;
    if (result.relative_residual < options.tolerance) {
      result.converged = true;
      return result;
    }
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return result;
}

}  // namespace ftl::linalg
