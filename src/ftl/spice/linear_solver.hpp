#pragma once
// Assemble -> factor -> solve pipeline for one Newton iteration, owning the
// reused assembly buffers and factorization workspaces. A Circuit carries
// one of these across Newton iterations, sweep points, and transient steps,
// so the sparsity pattern is computed once per circuit and the sparse LU
// reuses its symbolic analysis whenever the pattern holds still.

#include <cstdint>

#include "ftl/linalg/lu.hpp"
#include "ftl/linalg/sparse_lu.hpp"
#include "ftl/spice/mna.hpp"
#include "ftl/util/counters.hpp"

namespace ftl::spice {

class Circuit;

/// Process-wide Newton/LU pipeline counters, reported by the serve `stats`
/// op as `spice_core`. Every Newton iteration of every analysis counts
/// here, corner batches included; dcop_batch additionally reports its own
/// share as `batch_core` (spice/dcop.hpp).
struct SpiceCore {
  util::CounterSet set{"spice_core"};
  /// solve_iteration calls, all analyses
  util::Counter& newton_iterations = set.declare("newton_iterations");
  util::Counter& factors = set.declare("factors");  ///< full sparse factors
  /// accepted numeric-only replays
  util::Counter& refactors = set.declare("refactors");
  /// sparse pivoting gave out mid-solve
  util::Counter& dense_fallbacks = set.declare("dense_fallbacks");
  /// iterations served by the dense LU
  util::Counter& dense_solves = set.declare("dense_solves");
};

SpiceCore& spice_core();

/// One MnaLinearSolver's own work: plain counters bumped beside the
/// process-wide SpiceCore. A solver belongs to one circuit, driven by one
/// thread at a time, so a difference of two tallies is exactly the work
/// done in between — no other thread's solves can leak into it.
struct SolverTally {
  std::uint64_t newton_iterations = 0;  ///< solve_iteration calls
  std::uint64_t factors = 0;            ///< full sparse factorizations
  std::uint64_t refactors = 0;          ///< accepted numeric-only replays
  std::uint64_t rejected_refactors = 0; ///< replays rejected for pivot drift
};

/// Which matrix backend newton_solve uses. kAuto picks dense for small
/// systems (below MnaLinearSolver::kDenseCutover unknowns) and sparse above;
/// the explicit modes exist for differential testing and benchmarks.
enum class MatrixMode { kAuto, kDense, kSparse };

class MnaLinearSolver {
 public:
  /// Unknown count at which kAuto switches from dense LU to sparse LU. A
  /// lattice MNA matrix is >95% zeros by 3x3 (n ~ 35), where Gilbert-
  /// Peierls already wins; below this the dense kernel's locality does.
  static constexpr int kDenseCutover = 24;

  /// Readies the pipeline for an n-unknown system under `mode`; drops
  /// cached state when n or the effective backend changed.
  void prepare(int n, MatrixMode mode);

  /// Structure changed (devices added): drop the cached pattern/factors.
  void invalidate();

  /// One Newton iteration: zeroes the buffers, stamps every device of
  /// `circuit` at `ctx`, factors (reusing symbolic analysis when possible),
  /// and solves into `x`. Throws ftl::Error on a singular system. A sparse
  /// factorization failure falls back to dense once before giving up, so
  /// near-singular systems degrade instead of dying.
  void solve_iteration(const Circuit& circuit, const EvalContext& ctx,
                       linalg::Vector& x);

  const SolverTally& tally() const { return tally_; }

 private:
  int n_ = -1;
  bool sparse_active_ = false;
  SolverTally tally_;

  DenseAssembly dense_;
  linalg::LuFactorization dense_lu_;

  SparseAssembly sparse_;
  linalg::SparseLu sparse_lu_;
};

}  // namespace ftl::spice
