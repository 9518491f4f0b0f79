#pragma once
// Sparse LU factorization (Gilbert-Peierls left-looking algorithm) with row
// partial pivoting and symbolic-analysis reuse. This is the fast path under
// every Newton iteration of the circuit simulator: the MNA matrix of a
// switching lattice is >95% zeros, so the O(n^3) dense elimination is
// replaced by work proportional to the fill-in actually produced.
//
// Usage pattern for a Newton/sweep/transient loop whose matrix keeps one
// sparsity pattern while its values change:
//
//   SparseLu lu;
//   lu.factor(a0);                 // full factor: DFS symbolic + pivoting
//   for (each later iteration) {
//     if (!lu.refactor(ai)) lu.factor(ai);   // numeric-only; re-pivot on
//     x = lu.solve(b);                       // degraded pivots
//   }
//
// refactor() replays the recorded elimination pattern and pivot order with
// new values — no DFS — and verifies per column that the recorded pivot is
// exactly the row a fresh factorization would choose. On success the factors
// are therefore bitwise identical to factor(a); on drift it reports false,
// signalling the caller to re-run the full factorization. That equivalence
// is what lets one circuit-held SparseLu serve every corner of a batch
// (spice::dcop_batch) while each corner stays bit-for-bit equal to a solve
// on a freshly built circuit.

#include <cstddef>
#include <vector>

#include "ftl/linalg/sparse.hpp"

namespace ftl::linalg {

struct SparseLuOptions {
  /// Smallest acceptable |pivot|; below it the matrix is singular.
  double pivot_floor = 1e-300;
  /// Full factor: prefer the diagonal entry when it is at least this
  /// fraction of the column maximum (reduces permutation churn and fill).
  double diag_preference = 0.1;
  /// refactor(): a reused pivot must keep at least this fraction of its
  /// column's magnitude or the refactorization is rejected.
  double refactor_rel = 1e-4;
};

class SparseLu {
 public:
  using Options = SparseLuOptions;

  SparseLu() = default;

  /// Full factorization of the square CSR matrix `a` (symbolic + numeric,
  /// row partial pivoting). Throws ftl::Error when singular, leaving the
  /// object unfactored so no later refactor() replays a half-built record.
  void factor(const CsrView& a, const Options& options = SparseLuOptions());
  void factor(const SparseMatrix& a, const Options& options = SparseLuOptions());

  /// Numeric-only refactorization of a matrix with the SAME sparsity
  /// pattern as the one passed to factor(). Returns false when no
  /// factorization exists yet, the pattern differs, the recorded pivot of
  /// some column is no longer the one a fresh factor() would select (pivot
  /// order drift), or a reused pivot degrades below `refactor_rel` times its
  /// column magnitude; the factors are then in an unspecified state and the
  /// caller must run factor(). On success the factors are bitwise identical
  /// to what factor(a) would have produced.
  bool refactor(const CsrView& a, const Options& options = SparseLuOptions());
  bool refactor(const SparseMatrix& a, const Options& options = SparseLuOptions());

  /// Solves A x = b with the current factors.
  Vector solve(const Vector& b) const;
  void solve(const Vector& b, Vector& x) const;

  bool factored() const { return n_ > 0; }
  std::size_t size() const { return n_; }
  /// Stored factor entries (L strictly lower + U upper incl. diagonal) —
  /// the fill-in diagnostic.
  std::size_t factor_nonzeros() const {
    return l_values_.size() + u_values_.size() + n_;
  }

 private:
  void transpose_to_csc(const CsrView& a);
  bool pattern_matches(const CsrView& a) const;

  std::size_t n_ = 0;

  // CSC pattern of the input plus the CSC->CSR position permutation, so
  // numeric passes gather values straight out of the caller's CSR array.
  std::vector<std::size_t> acol_start_, arow_index_, aperm_;
  // Cached CSR pattern of the factored matrix, for refactor validation.
  std::vector<std::size_t> csr_row_start_, csr_col_index_;

  // L: unit lower triangular, CSC, strict sub-diagonal entries only.
  //   l_rows_   — original row index (the factorization's working frame)
  //   l_pivot_rows_ — the same entries mapped through pinv_ (solve frame)
  std::vector<std::size_t> l_col_start_, l_rows_, l_pivot_rows_;
  std::vector<double> l_values_;
  // U: upper triangular, CSC, strict super-diagonal entries (pivot-frame
  // rows) + diagonal.
  std::vector<std::size_t> u_col_start_, u_rows_;
  std::vector<double> u_values_;
  std::vector<double> u_diag_;

  std::vector<std::size_t> perm_;  // perm_[k] = original row pivotal at step k
  std::vector<std::size_t> pinv_;  // pinv_[orig row] = pivot step

  // Symbolic record for refactor(): per-column reach sets (topological
  // order) of the sparse triangular solves.
  std::vector<std::size_t> reach_start_, reach_;

  // Workspaces reused across calls (sized n_).
  std::vector<double> x_;
  std::vector<int> mark_;
  std::vector<std::size_t> dfs_stack_, dfs_edge_;
};

}  // namespace ftl::linalg
