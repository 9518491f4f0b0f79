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
// is what lets the batched corner engine (SparseLuBatch below) mix replayed
// and fully-refactored lanes while staying bit-for-bit reproducible.

#include <cstddef>
#include <cstdint>
#include <memory>
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
  /// row partial pivoting). Throws ftl::Error when singular.
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
  friend class SparseLuBatch;

  void transpose_to_csc(const CsrView& a);
  bool pattern_matches(const CsrView& a) const;

  /// The refactor() engine with externally-owned value storage: replays this
  /// factorization's recorded elimination into the given L/U value arrays
  /// (sized like l_values_/u_values_/u_diag_), using `x` as the scatter
  /// workspace. Const: the symbolic record is read-only, so one analysis can
  /// back many value lanes.
  bool refactor_into(const CsrView& a, const Options& options, double* l_values,
                     double* u_values, double* u_diag,
                     std::vector<double>& x) const;

  /// solve() against externally-owned value arrays (same layout).
  void solve_with(const double* l_values, const double* u_values,
                  const double* u_diag, const Vector& b, Vector& x) const;

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

struct SparseLuBatchCounters {
  std::uint64_t symbolic_factors = 0;  ///< full (symbolic + numeric) analyses
  std::uint64_t symbolic_reuses = 0;   ///< lane factors replayed off the shared record
  std::uint64_t numeric_refactors = 0; ///< accepted numeric-only replays (shared + per-lane)
  std::uint64_t lane_fallbacks = 0;    ///< replays rejected -> full factor for one lane
};

/// K numeric factorizations over ONE symbolic analysis. The first
/// factor_lane() call performs the full Gilbert-Peierls factorization and
/// records the elimination pattern; every other (lane, matrix) pair with the
/// same sparsity pattern replays that record numerically into the lane's own
/// contiguous value block — no DFS, no allocation, no pivot search beyond
/// the exact-match verification. A lane whose values break the recorded
/// pivot order falls back to a private full factorization for that lane
/// only; because an accepted replay is bitwise identical to a fresh
/// factor(), mixing replayed and fallback lanes cannot change any result.
///
/// Single-threaded by design: callers wanting parallelism split lanes
/// across per-thread SparseLuBatch instances (threads split the batch, not
/// the lane).
class SparseLuBatch {
 public:
  using Options = SparseLuOptions;

  /// Readies `lanes` value slots; drops any shared analysis and all
  /// per-lane state.
  void reset(std::size_t lanes);

  /// Drops the shared symbolic analysis and per-lane factors (call when the
  /// assembly reports a sparsity-pattern change). Lane count is kept.
  void invalidate();

  std::size_t lanes() const { return lanes_; }
  bool analyzed() const { return shared_.factored(); }

  /// Factors `a` into lane `lane`'s value block (see class comment).
  /// Throws ftl::Error when `a` is singular — exactly when a standalone
  /// SparseLu::factor(a) would.
  void factor_lane(std::size_t lane, const CsrView& a,
                   const Options& options = SparseLuOptions());

  /// Solves A x = b with lane `lane`'s current factors.
  void solve_lane(std::size_t lane, const Vector& b, Vector& x) const;

  const SparseLuBatchCounters& counters() const { return counters_; }

 private:
  enum class LaneState : unsigned char { kEmpty, kShared, kPrivate };

  std::size_t lanes_ = 0;
  SparseLu shared_;  ///< symbolic owner; its own values belong to no lane
  // Lane-blocked value arrays: lane i's L values occupy
  // lane_l_[i * l_stride_ .. (i + 1) * l_stride_), and likewise for U.
  std::size_t l_stride_ = 0, u_stride_ = 0;
  std::vector<double> lane_l_, lane_u_, lane_d_;
  std::vector<double> x_;  ///< scatter workspace shared by the replays
  std::vector<LaneState> state_;
  /// Fallback factorizations, allocated only for lanes that ever needed one.
  std::vector<std::unique_ptr<SparseLu>> fallback_;
  SparseLuBatchCounters counters_;
};

}  // namespace ftl::linalg
