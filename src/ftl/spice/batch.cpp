#include "ftl/spice/batch.hpp"

#include <atomic>
#include <cmath>
#include <utility>

#include "ftl/linalg/lu.hpp"
#include "ftl/spice/circuit.hpp"
#include "ftl/util/error.hpp"

namespace ftl::spice {
namespace {

// Process-wide counters (relaxed: individually exact, mutually unordered),
// flushed once per solve() call.
struct AtomicBatchCounters {
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> lanes{0};
  std::atomic<std::uint64_t> symbolic_factors{0};
  std::atomic<std::uint64_t> symbolic_reuses{0};
  std::atomic<std::uint64_t> numeric_refactors{0};
  std::atomic<std::uint64_t> lane_fallbacks{0};
  std::atomic<std::uint64_t> newton_iterations{0};
};

AtomicBatchCounters& batch_counter_cells() {
  static AtomicBatchCounters counters;
  return counters;
}

// Same typed-stamper assembly loop as MnaLinearSolver's: the Stamper
// constructor chosen here decides whether every stamp goes through a
// virtual call or an inlined write.
template <class Assembly>
void assemble(const Circuit& circuit, const EvalContext& ctx,
              Assembly& assembly) {
  Stamper stamper(assembly);
  for (const auto& dev : circuit.devices()) dev->stamp(stamper, ctx);
}

}  // namespace

BatchCounters batch_counters() {
  AtomicBatchCounters& c = batch_counter_cells();
  BatchCounters out;
  out.batches = c.batches.load(std::memory_order_relaxed);
  out.lanes = c.lanes.load(std::memory_order_relaxed);
  out.symbolic_factors = c.symbolic_factors.load(std::memory_order_relaxed);
  out.symbolic_reuses = c.symbolic_reuses.load(std::memory_order_relaxed);
  out.numeric_refactors = c.numeric_refactors.load(std::memory_order_relaxed);
  out.lane_fallbacks = c.lane_fallbacks.load(std::memory_order_relaxed);
  out.newton_iterations = c.newton_iterations.load(std::memory_order_relaxed);
  return out;
}

void reset_batch_counters() {
  AtomicBatchCounters& c = batch_counter_cells();
  c.batches.store(0, std::memory_order_relaxed);
  c.lanes.store(0, std::memory_order_relaxed);
  c.symbolic_factors.store(0, std::memory_order_relaxed);
  c.symbolic_reuses.store(0, std::memory_order_relaxed);
  c.numeric_refactors.store(0, std::memory_order_relaxed);
  c.lane_fallbacks.store(0, std::memory_order_relaxed);
  c.newton_iterations.store(0, std::memory_order_relaxed);
}

BatchSolver::BatchSolver(Circuit& circuit, std::size_t lanes)
    : circuit_(&circuit), lanes_(lanes) {
  FTL_EXPECTS(lanes > 0);
}

// One batched Newton iteration for `lane` — MnaLinearSolver::solve_iteration
// with the per-circuit SparseLu swapped for the lane-blocked batch LU. The
// control flow (pattern-change invalidation, dense rescue when sparse
// pivoting gives out) mirrors that function so a lane's solve sequence is
// indistinguishable from a standalone circuit's.
void BatchSolver::solve_lane_iteration(std::size_t lane,
                                       const EvalContext& ctx,
                                       linalg::Vector& x) {
  const std::size_t n = static_cast<std::size_t>(n_);
  if (sparse_active_) {
    sparse_.reset(n);
    assemble(*circuit_, ctx, sparse_);
    const bool pattern_changed = sparse_.finalize();
    if (pattern_changed) lu_.invalidate();

    const linalg::CsrView a = sparse_.matrix();
    bool factored = false;
    try {
      lu_.factor_lane(lane, a);
      factored = true;
    } catch (const ftl::Error&) {
      // fall through to the dense rescue below
    }
    if (factored) {
      lu_.solve_lane(lane, sparse_.rhs(), x);
      return;
    }
    // Sparse pivoting gave out (near-singular system). Re-assemble densely
    // once — the dense kernel's full pivot search is the last word; if it
    // also reports singular, the ftl::Error propagates to the caller.
    dense_.reset(n);
    assemble(*circuit_, ctx, dense_);
    dense_lu_.refactor(dense_.matrix());
    dense_lu_.solve(dense_.rhs(), x);
    return;
  }

  dense_.reset(n);
  assemble(*circuit_, ctx, dense_);
  dense_lu_.refactor(dense_.matrix());
  dense_lu_.solve(dense_.rhs(), x);
}

// newton_solve with the batch engine underneath: the clamp/tolerance update,
// convergence rules, and error wrapping are copied verbatim so a lane's
// iterate sequence matches the standalone solver bit for bit.
OpResult BatchSolver::run_lane(std::size_t lane, const linalg::Vector& initial,
                               EvalContext ctx, const NewtonOptions& options) {
  const int n = n_;
  OpResult result;
  result.solution = initial.size() == static_cast<std::size_t>(n)
                        ? initial
                        : linalg::Vector(static_cast<std::size_t>(n), 0.0);
  result.gmin_used = ctx.gmin;

  const int node_count = node_count_;
  const bool nonlinear = nonlinear_;
  const bool clamp_steps = nonlinear;

  linalg::Vector next;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    ++newton_iterations_;
    ctx.solution = &result.solution;
    try {
      solve_lane_iteration(lane, ctx, next);
    } catch (const ftl::Error& e) {
      throw ftl::Error(std::string("DC solve failed (") + e.what() +
                       "); check for floating nodes");
    }

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
    if (converged && (iter > 0 || !nonlinear)) {
      result.converged = true;
      return result;
    }
    if (!nonlinear && iter == 0) {
      result.converged = true;
      result.iterations = 1;
      return result;
    }
  }
  return result;
}

std::vector<BatchCornerResult> BatchSolver::solve(
    const std::function<void(std::size_t)>& apply,
    const NewtonOptions& options) {
  std::vector<BatchCornerResult> out(lanes_);

  // One gate for the whole batch: the corners share a topology, so the
  // static checks render one verdict. A rejection fails every lane exactly
  // as it would have aborted every standalone solve.
  try {
    circuit_->run_presolve_gate();
  } catch (const ftl::Error& e) {
    for (auto& r : out) {
      r.failed = true;
      r.error = e.what();
    }
    return out;
  }

  n_ = circuit_->prepare_unknowns();
  node_count_ = circuit_->node_count();
  nonlinear_ = circuit_->has_nonlinear_devices();
  sparse_active_ = options.matrix_mode == MatrixMode::kSparse ||
                   (options.matrix_mode == MatrixMode::kAuto &&
                    n_ >= MnaLinearSolver::kDenseCutover);
  lu_.reset(lanes_);
  sparse_.reset(0);  // drop any pattern cached from a previous solve()
  newton_iterations_ = 0;

  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    apply(lane);
    BatchCornerResult& r = out[lane];
    EvalContext ctx;
    ctx.is_transient = false;
    ctx.gmin = options.gmin;
    try {
      // Plain Newton first, then the same rescue ladders as
      // dc_operating_point — run through this lane's batched factors.
      OpResult direct = run_lane(lane, linalg::Vector{}, ctx, options);
      if (direct.converged) {
        r.op = std::move(direct);
      } else {
        r.op = detail::dcop_rescue(
            ctx, options,
            [&](const linalg::Vector& initial, const EvalContext& step_ctx) {
              return run_lane(lane, initial, step_ctx, options);
            });
      }
    } catch (const ftl::Error& e) {
      r.failed = true;
      r.error = e.what();
    }
  }

  AtomicBatchCounters& c = batch_counter_cells();
  const linalg::SparseLuBatchCounters& lu = lu_.counters();
  c.batches.fetch_add(1, std::memory_order_relaxed);
  c.lanes.fetch_add(lanes_, std::memory_order_relaxed);
  c.symbolic_factors.fetch_add(lu.symbolic_factors, std::memory_order_relaxed);
  c.symbolic_reuses.fetch_add(lu.symbolic_reuses, std::memory_order_relaxed);
  c.numeric_refactors.fetch_add(lu.numeric_refactors,
                                std::memory_order_relaxed);
  c.lane_fallbacks.fetch_add(lu.lane_fallbacks, std::memory_order_relaxed);
  c.newton_iterations.fetch_add(newton_iterations_, std::memory_order_relaxed);
  return out;
}

std::vector<BatchCornerResult> dcop_batch(
    Circuit& circuit, std::size_t lanes,
    const std::function<void(std::size_t)>& apply,
    const NewtonOptions& options) {
  BatchSolver solver(circuit, lanes);
  return solver.solve(apply, options);
}

}  // namespace ftl::spice
