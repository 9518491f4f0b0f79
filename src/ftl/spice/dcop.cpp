#include "ftl/spice/dcop.hpp"

#include <algorithm>
#include <cmath>

#include "ftl/util/error.hpp"

namespace ftl::spice {
namespace {

/// The classic rescue ladders, run after a plain Newton attempt failed:
/// gmin stepping, then source stepping from the ladder's best solution.
/// `ctx` is the target context (true gmin, full sources). Throws
/// ftl::Error when both ladders stall.
OpResult dcop_rescue(Circuit& circuit, const EvalContext& ctx,
                     const NewtonOptions& options) {
  // gmin stepping: solve an easier (leakier) circuit, then tighten.
  linalg::Vector guess;
  bool have_guess = false;
  for (double gmin = 1e-2; gmin >= options.gmin; gmin /= 10.0) {
    EvalContext step_ctx = ctx;
    step_ctx.gmin = gmin;
    OpResult r = newton_solve(circuit, have_guess ? guess : linalg::Vector{},
                              step_ctx, options);
    if (!r.converged) break;
    guess = r.solution;
    have_guess = true;
    if (gmin <= options.gmin * 10.0) {
      OpResult final_result = newton_solve(circuit, guess, ctx, options);
      if (final_result.converged) return final_result;
      break;
    }
  }

  // Source stepping from whatever the gmin ladder produced, with an
  // adaptive step: a failed rung halves the increment and retries from the
  // last good solution.
  double scale = 0.0;
  double step = 0.1;
  while (scale < 1.0) {
    const double attempt_scale = std::min(scale + step, 1.0);
    EvalContext step_ctx = ctx;
    step_ctx.source_scale = attempt_scale;
    OpResult r = newton_solve(circuit, have_guess ? guess : linalg::Vector{},
                              step_ctx, options);
    if (r.converged) {
      scale = attempt_scale;
      guess = r.solution;
      have_guess = true;
      step = std::min(step * 2.0, 0.25);
      if (scale >= 1.0) return r;
    } else {
      step /= 2.0;
      if (step < 1e-4) {
        throw ftl::Error(
            "DC operating point: source stepping stalled at scale " +
            std::to_string(scale));
      }
    }
  }
  throw ftl::Error("DC operating point: convergence failed");
}

}  // namespace

OpResult newton_solve(Circuit& circuit, const linalg::Vector& initial,
                      EvalContext ctx, const NewtonOptions& options) {
  // Every analysis funnels through here, so one gate covers dcop, corner
  // batches, dcsweep and transient; the hook runs once per topology and
  // throws to abort.
  circuit.run_presolve_gate();
  const int n = circuit.prepare_unknowns();
  OpResult result;
  result.solution = initial.size() == static_cast<std::size_t>(n)
                        ? initial
                        : linalg::Vector(static_cast<std::size_t>(n), 0.0);
  result.gmin_used = ctx.gmin;

  const int node_count = circuit.node_count();
  // Step clamping is a nonlinear-convergence aid; a linear system's first
  // solve is already exact and must not be truncated.
  const bool nonlinear = circuit.has_nonlinear_devices();
  const bool clamp_steps = nonlinear;

  // The circuit-held pipeline keeps the assembly buffers, the cached MNA
  // sparsity pattern, and the factorization workspaces alive across
  // iterations AND across the sweep/transient steps that call back in here.
  MnaLinearSolver& solver = circuit.linear_solver();
  solver.prepare(n, options.matrix_mode);

  linalg::Vector next;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    ctx.solution = &result.solution;
    try {
      solver.solve_iteration(circuit, ctx, next);
    } catch (const ftl::Error& e) {
      throw ftl::Error(std::string("DC solve failed (") + e.what() +
                       "); check for floating nodes");
    }

    // Clamp the Newton step on node voltages to aid convergence.
    bool converged = true;
    for (int i = 0; i < n; ++i) {
      const std::size_t ui = static_cast<std::size_t>(i);
      double delta = next[ui] - result.solution[ui];
      if (clamp_steps && i < node_count) {
        delta = std::clamp(delta, -options.max_step, options.max_step);
      }
      const double updated = result.solution[ui] + delta;
      const double tol =
          options.abstol + options.reltol * std::max(std::fabs(updated),
                                                     std::fabs(result.solution[ui]));
      if (std::fabs(delta) > tol) converged = false;
      result.solution[ui] = updated;
    }
    // A linear system's first solve is exact: accept it at iter 0 instead
    // of burning a second assemble+factor+solve to "confirm" convergence.
    // Nonlinear systems still require one confirming iteration.
    if (converged && (iter > 0 || !nonlinear)) {
      result.converged = true;
      return result;
    }
    if (!nonlinear && iter == 0) {
      // Linear circuits land in one solve even when the update was large.
      result.converged = true;
      result.iterations = 1;
      return result;
    }
  }
  return result;
}

OpResult dc_operating_point(Circuit& circuit, const NewtonOptions& options) {
  EvalContext ctx;
  ctx.is_transient = false;
  ctx.gmin = options.gmin;

  // Plain Newton from a zero start; the rescue ladders otherwise.
  OpResult direct = newton_solve(circuit, {}, ctx, options);
  if (direct.converged) return direct;
  return dcop_rescue(circuit, ctx, options);
}

BatchCore& batch_core() {
  static BatchCore counters;
  return counters;
}

std::vector<BatchCornerResult> dcop_batch(
    Circuit& circuit, std::size_t lanes,
    const std::function<void(std::size_t)>& apply,
    const NewtonOptions& options) {
  const SolverTally before = circuit.linear_solver().tally();
  std::vector<BatchCornerResult> out(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    apply(lane);
    try {
      out[lane].op = dc_operating_point(circuit, options);
    } catch (const ftl::Error& e) {
      out[lane].failed = true;
      out[lane].error = e.what();
    }
  }

  const SolverTally after = circuit.linear_solver().tally();
  BatchCore& c = batch_core();
  const std::uint64_t replays = after.refactors - before.refactors;
  c.batches.add();
  c.lanes.add(lanes);
  c.symbolic_factors.add(after.factors - before.factors);
  c.symbolic_reuses.add(replays);
  c.numeric_refactors.add(replays);
  c.lane_fallbacks.add(after.rejected_refactors - before.rejected_refactors);
  c.newton_iterations.add(after.newton_iterations - before.newton_iterations);
  return out;
}

}  // namespace ftl::spice
