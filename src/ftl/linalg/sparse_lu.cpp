#include "ftl/linalg/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "ftl/util/error.hpp"

namespace ftl::linalg {
namespace {

constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);

}  // namespace

void SparseLu::transpose_to_csc(const CsrView& a) {
  const std::size_t n = a.n;
  const std::size_t nnz = a.nonzeros();
  acol_start_.assign(n + 1, 0);
  arow_index_.resize(nnz);
  aperm_.resize(nnz);
  for (std::size_t p = 0; p < nnz; ++p) ++acol_start_[a.col_index[p] + 1];
  for (std::size_t c = 0; c < n; ++c) acol_start_[c + 1] += acol_start_[c];
  std::vector<std::size_t> cursor(acol_start_.begin(), acol_start_.end() - 1);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = a.row_start[r]; p < a.row_start[r + 1]; ++p) {
      const std::size_t q = cursor[a.col_index[p]]++;
      arow_index_[q] = r;
      aperm_[q] = p;
    }
  }
}

bool SparseLu::pattern_matches(const CsrView& a) const {
  if (a.n != n_ || a.nonzeros() != csr_col_index_.size()) return false;
  for (std::size_t r = 0; r <= n_; ++r) {
    if (a.row_start[r] != csr_row_start_[r]) return false;
  }
  for (std::size_t p = 0; p < csr_col_index_.size(); ++p) {
    if (a.col_index[p] != csr_col_index_[p]) return false;
  }
  return true;
}

void SparseLu::factor(const CsrView& a, const Options& options) {
  FTL_EXPECTS(a.n > 0 && a.row_start != nullptr);
  const std::size_t n = a.n;
  n_ = 0;  // unfactored until the elimination completes; a throw leaves it so
  csr_row_start_.assign(a.row_start, a.row_start + n + 1);
  csr_col_index_.assign(a.col_index, a.col_index + a.nonzeros());
  transpose_to_csc(a);

  l_col_start_.assign(1, 0);
  l_rows_.clear();
  l_values_.clear();
  u_col_start_.assign(1, 0);
  u_rows_.clear();
  u_values_.clear();
  u_diag_.assign(n, 0.0);
  perm_.assign(n, kUnassigned);
  pinv_.assign(n, kUnassigned);
  reach_start_.assign(1, 0);
  reach_.clear();

  x_.assign(n, 0.0);
  mark_.assign(n, 0);
  dfs_stack_.resize(n);
  dfs_edge_.resize(n);
  std::vector<std::size_t> topo(n);  // reach of the current column

  for (std::size_t k = 0; k < n; ++k) {
    // --- Symbolic: reach of A(:,k) through the partial L (DFS, reverse
    // postorder so ancestors are eliminated before their dependents).
    const int gen = static_cast<int>(k) + 1;
    std::size_t top = n;
    for (std::size_t p = acol_start_[k]; p < acol_start_[k + 1]; ++p) {
      const std::size_t start = arow_index_[p];
      if (mark_[start] == gen) continue;
      std::size_t depth = 0;
      dfs_stack_[0] = start;
      const auto children_begin = [&](std::size_t j) {
        const std::size_t jcol = pinv_[j];
        return jcol == kUnassigned ? l_col_start_.back()  // no children
                                   : l_col_start_[jcol];
      };
      const auto children_end = [&](std::size_t j) {
        const std::size_t jcol = pinv_[j];
        return jcol == kUnassigned ? l_col_start_.back()
                                   : l_col_start_[jcol + 1];
      };
      mark_[start] = gen;
      dfs_edge_[0] = children_begin(start);
      while (true) {
        const std::size_t j = dfs_stack_[depth];
        const std::size_t end = children_end(j);
        bool descended = false;
        while (dfs_edge_[depth] < end) {
          const std::size_t child = l_rows_[dfs_edge_[depth]++];
          if (mark_[child] == gen) continue;
          mark_[child] = gen;
          ++depth;
          dfs_stack_[depth] = child;
          dfs_edge_[depth] = children_begin(child);
          descended = true;
          break;
        }
        if (descended) continue;
        topo[--top] = j;  // postorder: all descendants already emitted
        if (depth == 0) break;
        --depth;
      }
    }

    // --- Numeric: sparse triangular solve x = L \ A(:,k).
    for (std::size_t px = top; px < n; ++px) x_[topo[px]] = 0.0;
    for (std::size_t p = acol_start_[k]; p < acol_start_[k + 1]; ++p) {
      x_[arow_index_[p]] = a.values[aperm_[p]];
    }
    for (std::size_t px = top; px < n; ++px) {
      const std::size_t j = topo[px];
      const std::size_t jcol = pinv_[j];
      if (jcol == kUnassigned) continue;
      const double xj = x_[j];
      if (xj == 0.0) continue;
      for (std::size_t p = l_col_start_[jcol]; p < l_col_start_[jcol + 1]; ++p) {
        x_[l_rows_[p]] -= l_values_[p] * xj;
      }
    }

    // --- Pivot: largest candidate, preferring the diagonal when it holds
    // enough of the column's magnitude.
    double maxabs = 0.0;
    std::size_t pivot_row = kUnassigned;
    for (std::size_t px = top; px < n; ++px) {
      const std::size_t j = topo[px];
      if (pinv_[j] != kUnassigned) continue;
      const double v = std::fabs(x_[j]);
      if (v > maxabs) {
        maxabs = v;
        pivot_row = j;
      }
    }
    if (pivot_row == kUnassigned || maxabs <= options.pivot_floor) {
      throw ftl::Error("sparse LU: singular matrix (column " +
                       std::to_string(k) + ", max pivot " +
                       std::to_string(maxabs) + ")");
    }
    if (mark_[k] == gen && pinv_[k] == kUnassigned &&
        std::fabs(x_[k]) >= options.diag_preference * maxabs) {
      pivot_row = k;  // in-reach, unassigned, and big enough: keep the diag
    }
    const double pivot = x_[pivot_row];
    perm_[k] = pivot_row;
    pinv_[pivot_row] = k;

    // --- Store the column and its symbolic record.
    for (std::size_t px = top; px < n; ++px) {
      const std::size_t j = topo[px];
      reach_.push_back(j);
      const std::size_t jcol = pinv_[j];
      if (jcol < k) {  // eliminated: U entry in pivot-frame row jcol
        u_rows_.push_back(jcol);
        u_values_.push_back(x_[j]);
      } else if (j != pivot_row) {  // below the pivot: L entry
        l_rows_.push_back(j);
        l_values_.push_back(x_[j] / pivot);
      }
    }
    u_diag_[k] = pivot;
    reach_start_.push_back(reach_.size());
    l_col_start_.push_back(l_rows_.size());
    u_col_start_.push_back(u_rows_.size());
  }

  l_pivot_rows_.resize(l_rows_.size());
  for (std::size_t p = 0; p < l_rows_.size(); ++p) {
    l_pivot_rows_[p] = pinv_[l_rows_[p]];
  }
  n_ = n;
}

void SparseLu::factor(const SparseMatrix& a, const Options& options) {
  factor(a.view(), options);
}

bool SparseLu::refactor(const CsrView& a, const Options& options) {
  if (n_ == 0 || !pattern_matches(a)) return false;
  const std::size_t n = n_;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t reach_begin = reach_start_[k];
    const std::size_t reach_end = reach_start_[k + 1];
    for (std::size_t px = reach_begin; px < reach_end; ++px) {
      x_[reach_[px]] = 0.0;
    }
    for (std::size_t p = acol_start_[k]; p < acol_start_[k + 1]; ++p) {
      x_[arow_index_[p]] = a.values[aperm_[p]];
    }
    for (std::size_t px = reach_begin; px < reach_end; ++px) {
      const std::size_t j = reach_[px];
      const std::size_t jcol = pinv_[j];
      if (jcol >= k) continue;  // not eliminated before this column
      const double xj = x_[j];
      if (xj == 0.0) continue;
      for (std::size_t p = l_col_start_[jcol]; p < l_col_start_[jcol + 1]; ++p) {
        x_[l_rows_[p]] -= l_values_[p] * xj;
      }
    }

    // Re-run the pivot selection exactly as factor() does. The recorded
    // reach is still in the topological order the DFS emitted it, and with
    // pinv_ holding its final values, "unassigned when column k was
    // factored" is exactly pinv_[j] >= k. Any disagreement with the
    // recorded pivot means a fresh factorization would permute differently,
    // so the replayed elimination would no longer match the symbolic
    // record: reject and let the caller re-factor.
    double maxabs = 0.0;
    std::size_t pivot_row = kUnassigned;
    bool diag_in_reach = false;
    for (std::size_t px = reach_begin; px < reach_end; ++px) {
      const std::size_t j = reach_[px];
      if (j == k) diag_in_reach = true;
      if (pinv_[j] < k) continue;  // already eliminated at step k
      const double v = std::fabs(x_[j]);
      if (v > maxabs) {
        maxabs = v;
        pivot_row = j;
      }
    }
    if (pivot_row == kUnassigned || maxabs <= options.pivot_floor) {
      return false;  // factor() would throw; let it report the singularity
    }
    if (diag_in_reach && pinv_[k] >= k &&
        std::fabs(x_[k]) >= options.diag_preference * maxabs) {
      pivot_row = k;  // the diagonal preference factor() would apply
    }
    if (pivot_row != perm_[k]) return false;  // pivot order drifted

    const double pivot = x_[pivot_row];
    if (std::fabs(pivot) < options.refactor_rel * maxabs) {
      return false;  // factors now partially stale: caller must factor()
    }

    u_diag_[k] = pivot;
    for (std::size_t p = u_col_start_[k]; p < u_col_start_[k + 1]; ++p) {
      u_values_[p] = x_[perm_[u_rows_[p]]];
    }
    for (std::size_t p = l_col_start_[k]; p < l_col_start_[k + 1]; ++p) {
      l_values_[p] = x_[l_rows_[p]] / pivot;
    }
  }
  return true;
}

bool SparseLu::refactor(const SparseMatrix& a, const Options& options) {
  return refactor(a.view(), options);
}

void SparseLu::solve(const Vector& b, Vector& x) const {
  FTL_EXPECTS(n_ > 0 && b.size() == n_);
  x.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) x[k] = b[perm_[k]];
  // Forward substitution: L is unit lower triangular in the pivot frame.
  for (std::size_t j = 0; j < n_; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    for (std::size_t p = l_col_start_[j]; p < l_col_start_[j + 1]; ++p) {
      x[l_pivot_rows_[p]] -= l_values_[p] * xj;
    }
  }
  // Back substitution on U (columns high to low).
  for (std::size_t k = n_; k-- > 0;) {
    const double xk = (x[k] /= u_diag_[k]);
    if (xk == 0.0) continue;
    for (std::size_t p = u_col_start_[k]; p < u_col_start_[k + 1]; ++p) {
      x[u_rows_[p]] -= u_values_[p] * xk;
    }
  }
}

Vector SparseLu::solve(const Vector& b) const {
  Vector x;
  solve(b, x);
  return x;
}

}  // namespace ftl::linalg
