#pragma once
// Batched corner/variability DC engine: one circuit topology, K parameter
// corners, ONE symbolic sparse-LU analysis. The caller supplies a mutator
// that retunes the shared circuit to lane i's corner (device parameters,
// source waveforms — anything that moves values without moving MNA stamp
// positions); each lane then runs the full dc_operating_point ladder (plain
// Newton, gmin stepping, source stepping) with its factorizations served by
// linalg::SparseLuBatch, so after the first lane every Newton iteration is
// a numeric replay of the recorded elimination instead of a fresh symbolic
// factorization.
//
// Determinism contract: lane i's result is bitwise identical to building a
// standalone circuit at corner i and calling dc_operating_point on it. That
// holds because every lane's Newton iteration starts from zero, an accepted
// SparseLu replay is bitwise identical to a full factor of the same matrix,
// rejected replays fall back to exactly that full factor, and the Newton
// driver below mirrors newton_solve step for step. Consequently threads may
// split a batch into contiguous lane chunks (threads split the batch,
// never a lane) without perturbing any result.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ftl/linalg/sparse_lu.hpp"
#include "ftl/spice/dcop.hpp"

namespace ftl::spice {

/// Process-wide batch-engine counters (relaxed atomics, monotonic),
/// surfaced by the serve `stats` op as `batch_core` next to `spice_core`.
struct BatchCounters {
  std::uint64_t batches = 0;            ///< dcop_batch / BatchSolver::solve calls
  std::uint64_t lanes = 0;              ///< corners solved across all batches
  std::uint64_t symbolic_factors = 0;   ///< full analyses (first lane + rescues)
  std::uint64_t symbolic_reuses = 0;    ///< lane factors replayed off the record
  std::uint64_t numeric_refactors = 0;  ///< accepted numeric-only replays
  std::uint64_t lane_fallbacks = 0;     ///< replays rejected -> per-lane factor
  std::uint64_t newton_iterations = 0;  ///< batched Newton iterations
};

/// Snapshot of the process-wide counters.
BatchCounters batch_counters();

/// Resets all counters to zero (test support).
void reset_batch_counters();

/// Outcome of one lane. `failed` mirrors dc_operating_point throwing for
/// that corner (singular system, stalled rescue): `error` then carries the
/// exception text and `op` is meaningless. Callers that would have caught
/// the per-trial ftl::Error treat failed lanes the same way.
struct BatchCornerResult {
  OpResult op;
  bool failed = false;
  std::string error;
};

/// The batched engine. One instance owns the shared assembly buffers and
/// the lane-blocked LU; it is single-threaded (one instance per thread when
/// splitting a batch).
class BatchSolver {
 public:
  /// `apply(lane)` mutates `circuit` to lane's corner; it runs once per
  /// lane per solve() call, before that lane's first assembly. `circuit`
  /// must outlive the solver.
  BatchSolver(Circuit& circuit, std::size_t lanes);

  std::size_t lanes() const { return lanes_; }

  /// Runs the full DC-operating-point ladder for every lane, in lane order.
  /// Never throws for per-lane numeric failures (reported per corner); a
  /// presolve-gate rejection fails every lane with the same error.
  std::vector<BatchCornerResult> solve(
      const std::function<void(std::size_t)>& apply,
      const NewtonOptions& options = NewtonOptions());

  /// LU-level counters of the most recent solve() call.
  const linalg::SparseLuBatchCounters& lu_counters() const {
    return lu_.counters();
  }

 private:
  OpResult run_lane(std::size_t lane, const linalg::Vector& initial,
                    EvalContext ctx, const NewtonOptions& options);
  void solve_lane_iteration(std::size_t lane, const EvalContext& ctx,
                            linalg::Vector& x);

  Circuit* circuit_;
  std::size_t lanes_;
  int n_ = 0;
  int node_count_ = 0;
  bool nonlinear_ = false;
  bool sparse_active_ = false;
  std::uint64_t newton_iterations_ = 0;

  SparseAssembly sparse_;
  linalg::SparseLuBatch lu_;
  DenseAssembly dense_;
  linalg::LuFactorization dense_lu_;
};

/// Convenience wrapper: K corners of `circuit` through one BatchSolver.
std::vector<BatchCornerResult> dcop_batch(
    Circuit& circuit, std::size_t lanes,
    const std::function<void(std::size_t)>& apply,
    const NewtonOptions& options = NewtonOptions());

}  // namespace ftl::spice
