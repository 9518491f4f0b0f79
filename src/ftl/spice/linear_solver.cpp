#include "ftl/spice/linear_solver.hpp"

#include "ftl/spice/circuit.hpp"
#include "ftl/util/error.hpp"

namespace ftl::spice {

// A Newton iteration assembles and factors a whole matrix, so a handful of
// counter increments per iteration is noise — no per-solve flush needed.
SpiceCore& spice_core() {
  static SpiceCore counters;
  return counters;
}

void MnaLinearSolver::prepare(int n, MatrixMode mode) {
  const bool want_sparse =
      mode == MatrixMode::kSparse ||
      (mode == MatrixMode::kAuto && n >= kDenseCutover);
  if (n != n_ || want_sparse != sparse_active_) {
    n_ = n;
    sparse_active_ = want_sparse;
    sparse_.reset(0);  // drop any cached pattern from another sizing
  }
}

void MnaLinearSolver::invalidate() {
  n_ = -1;
  sparse_.reset(0);
}

namespace {

// Typed, not MnaAssembly&: the Stamper constructor chosen here decides
// whether every stamp of every Newton iteration goes through a virtual
// call or an inlined write.
template <class Assembly>
void assemble(const Circuit& circuit, const EvalContext& ctx,
              Assembly& assembly) {
  Stamper stamper(assembly);
  for (const auto& dev : circuit.devices()) dev->stamp(stamper, ctx);
}

}  // namespace

void MnaLinearSolver::solve_iteration(const Circuit& circuit,
                                      const EvalContext& ctx,
                                      linalg::Vector& x) {
  FTL_EXPECTS(n_ > 0);
  const std::size_t n = static_cast<std::size_t>(n_);
  SpiceCore& counters = spice_core();
  counters.newton_iterations.add();
  ++tally_.newton_iterations;

  if (sparse_active_) {
    sparse_.reset(n);
    assemble(circuit, ctx, sparse_);
    const bool pattern_changed = sparse_.finalize();

    const linalg::CsrView a = sparse_.matrix();
    bool factored = false;
    try {
      if (sparse_lu_.refactor(a)) {
        counters.refactors.add();
        ++tally_.refactors;
      } else {
        // refactor() declines when nothing is factored or the pattern
        // moved; with factors of this very pattern on hand it was drift.
        if (sparse_lu_.factored() && !pattern_changed) {
          ++tally_.rejected_refactors;
        }
        sparse_lu_.factor(a);
        counters.factors.add();
        ++tally_.factors;
      }
      factored = true;
    } catch (const ftl::Error&) {
      // fall through to the dense rescue below
      counters.dense_fallbacks.add();
    }
    if (factored) {
      sparse_lu_.solve(sparse_.rhs(), x);
      return;
    }
    // Sparse pivoting gave out (near-singular system). Re-assemble densely
    // once — the dense kernel's full pivot search is the last word; if it
    // also reports singular, the ftl::Error propagates to the caller.
    dense_.reset(n);
    assemble(circuit, ctx, dense_);
    dense_lu_.refactor(dense_.matrix());
    dense_lu_.solve(dense_.rhs(), x);
    return;
  }

  counters.dense_solves.add();
  dense_.reset(n);
  assemble(circuit, ctx, dense_);
  dense_lu_.refactor(dense_.matrix());
  dense_lu_.solve(dense_.rhs(), x);
}

}  // namespace ftl::spice
