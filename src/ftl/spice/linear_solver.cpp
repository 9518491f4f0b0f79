#include "ftl/spice/linear_solver.hpp"

#include <atomic>

#include "ftl/spice/circuit.hpp"
#include "ftl/util/error.hpp"

namespace ftl::spice {
namespace {

// Process-wide counters (relaxed: individually exact, mutually unordered).
// A Newton iteration assembles and factors a whole matrix, so a handful of
// relaxed increments per iteration is noise — no per-solve flush needed.
struct AtomicSpiceCounters {
  std::atomic<std::uint64_t> newton_iterations{0};
  std::atomic<std::uint64_t> factors{0};
  std::atomic<std::uint64_t> refactors{0};
  std::atomic<std::uint64_t> dense_fallbacks{0};
  std::atomic<std::uint64_t> dense_solves{0};
};

AtomicSpiceCounters& spice_counter_cells() {
  static AtomicSpiceCounters counters;
  return counters;
}

}  // namespace

SpiceCounters spice_counters() {
  AtomicSpiceCounters& c = spice_counter_cells();
  SpiceCounters out;
  out.newton_iterations = c.newton_iterations.load(std::memory_order_relaxed);
  out.factors = c.factors.load(std::memory_order_relaxed);
  out.refactors = c.refactors.load(std::memory_order_relaxed);
  out.dense_fallbacks = c.dense_fallbacks.load(std::memory_order_relaxed);
  out.dense_solves = c.dense_solves.load(std::memory_order_relaxed);
  return out;
}

void reset_spice_counters() {
  AtomicSpiceCounters& c = spice_counter_cells();
  c.newton_iterations.store(0, std::memory_order_relaxed);
  c.factors.store(0, std::memory_order_relaxed);
  c.refactors.store(0, std::memory_order_relaxed);
  c.dense_fallbacks.store(0, std::memory_order_relaxed);
  c.dense_solves.store(0, std::memory_order_relaxed);
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
  AtomicSpiceCounters& counters = spice_counter_cells();
  counters.newton_iterations.fetch_add(1, std::memory_order_relaxed);
  ++tally_.newton_iterations;

  if (sparse_active_) {
    sparse_.reset(n);
    assemble(circuit, ctx, sparse_);
    const bool pattern_changed = sparse_.finalize();

    const linalg::CsrView a = sparse_.matrix();
    bool factored = false;
    try {
      if (sparse_lu_.refactor(a)) {
        counters.refactors.fetch_add(1, std::memory_order_relaxed);
        ++tally_.refactors;
      } else {
        // refactor() declines when nothing is factored or the pattern
        // moved; with factors of this very pattern on hand it was drift.
        if (sparse_lu_.factored() && !pattern_changed) {
          ++tally_.rejected_refactors;
        }
        sparse_lu_.factor(a);
        counters.factors.fetch_add(1, std::memory_order_relaxed);
        ++tally_.factors;
      }
      factored = true;
    } catch (const ftl::Error&) {
      // fall through to the dense rescue below
      counters.dense_fallbacks.fetch_add(1, std::memory_order_relaxed);
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

  counters.dense_solves.fetch_add(1, std::memory_order_relaxed);
  dense_.reset(n);
  assemble(circuit, ctx, dense_);
  dense_lu_.refactor(dense_.matrix());
  dense_lu_.solve(dense_.rhs(), x);
}

}  // namespace ftl::spice
