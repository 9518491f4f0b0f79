#pragma once
// Newton–Raphson DC operating point with the two classic SPICE rescue
// ladders: gmin stepping and source stepping; and corner batches of one
// topology solved through that same path on one retuned circuit.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ftl/spice/circuit.hpp"
#include "ftl/spice/linear_solver.hpp"

namespace ftl::spice {

struct NewtonOptions {
  int max_iterations = 200;
  double abstol = 1e-6;      ///< node-voltage absolute tolerance, V
  double reltol = 1e-3;
  double max_step = 2.0;     ///< Newton voltage-step clamp, V
  double gmin = 1e-12;
  /// Linear-system backend; kAuto sizes the choice per circuit. kDense and
  /// kSparse force a backend for differential testing.
  MatrixMode matrix_mode = MatrixMode::kAuto;
};

struct OpResult {
  linalg::Vector solution;  ///< node voltages then branch currents
  bool converged = false;
  int iterations = 0;       ///< Newton iterations of the final ladder rung
  double gmin_used = 0.0;   ///< final gmin (diagnostic)
};

/// Computes the DC operating point. Tries plain Newton, then gmin stepping,
/// then source stepping. Throws ftl::Error on a singular system.
OpResult dc_operating_point(Circuit& circuit, const NewtonOptions& options = {});

/// One Newton solve at fixed context knobs; used by the steppers, the DC
/// sweep and the transient engine. `initial` seeds the iteration (may be
/// empty). `ctx_template` supplies time/integrator/source-scale knobs; the
/// solver pointer inside it is managed here.
OpResult newton_solve(Circuit& circuit, const linalg::Vector& initial,
                      EvalContext ctx_template, const NewtonOptions& options);

/// Process-wide corner-batch counters, reported by the serve `stats` op as
/// `batch_core` next to `spice_core`. Each dcop_batch call adds the
/// difference of its circuit's SolverTally across the batch, so the counts
/// are the batch's own work. The same iterations and factorizations also
/// count in `spice_core`. symbolic_reuses / (symbolic_factors +
/// symbolic_reuses) is the amortization ratio.
struct BatchCore {
  util::CounterSet set{"batch_core"};
  util::Counter& batches = set.declare("batches");  ///< dcop_batch calls
  util::Counter& lanes = set.declare("lanes");  ///< corners solved
  /// full sparse factorizations
  util::Counter& symbolic_factors = set.declare("symbolic_factors");
  /// factorizations replayed off the record
  util::Counter& symbolic_reuses = set.declare("symbolic_reuses");
  /// accepted numeric-only replays (= reuses)
  util::Counter& numeric_refactors = set.declare("numeric_refactors");
  /// replays rejected for pivot drift
  util::Counter& lane_fallbacks = set.declare("lane_fallbacks");
  /// Newton iterations of the batches
  util::Counter& newton_iterations = set.declare("newton_iterations");
};

BatchCore& batch_core();

/// Outcome of one corner. `failed` means dc_operating_point threw for that
/// corner (presolve-gate rejection, singular system, stalled rescue):
/// `error` then carries the exception text and `op` is meaningless.
struct BatchCornerResult {
  OpResult op;
  bool failed = false;
  std::string error;
};

/// K corners of one topology: for each lane in order, `apply(lane)` retunes
/// `circuit` in place (device parameters, source waveforms — anything that
/// moves values without moving MNA stamp positions), then
/// dc_operating_point(circuit, options) solves it. The circuit's own
/// MnaLinearSolver keeps the netlist's sparsity pattern and symbolic LU
/// across lanes, and an accepted replay is bitwise a fresh factor, so lane
/// i's result equals dc_operating_point on a freshly built circuit at
/// corner i. Never throws an ftl::Error for a corner; reports it per lane.
std::vector<BatchCornerResult> dcop_batch(
    Circuit& circuit, std::size_t lanes,
    const std::function<void(std::size_t)>& apply,
    const NewtonOptions& options = NewtonOptions());

}  // namespace ftl::spice
