#include "ftl/tcad/sweep.hpp"

#include <cmath>

#include "ftl/util/error.hpp"
#include "ftl/util/thread_pool.hpp"

namespace ftl::tcad {

linalg::Vector IvCurve::terminal_magnitude(int terminal) const {
  FTL_EXPECTS(terminal >= 0 && terminal < 4);
  linalg::Vector out(terminal_currents.size());
  for (std::size_t i = 0; i < terminal_currents.size(); ++i) {
    out[i] = std::fabs(terminal_currents[i][static_cast<std::size_t>(terminal)]);
  }
  return out;
}

linalg::Vector IvCurve::drain_current(const BiasCase& bias) const {
  linalg::Vector out(terminal_currents.size(), 0.0);
  for (std::size_t i = 0; i < terminal_currents.size(); ++i) {
    for (std::size_t t = 0; t < 4; ++t) {
      if (bias.roles[t] == Role::kDrain) out[i] += terminal_currents[i][t];
    }
  }
  return out;
}

IvCurve sweep_gate(const NetworkSolver& solver, const BiasCase& bias,
                   double vds, double vg_first, double vg_last, int points) {
  FTL_EXPECTS(points >= 2);
  IvCurve curve;
  curve.label = bias.name + " Id-Vg @ Vds=" + std::to_string(vds);
  curve.sweep_variable = "Vgs";
  curve.sweep_values = linalg::linspace(vg_first, vg_last, static_cast<std::size_t>(points));
  linalg::Vector warm;
  for (double vg : curve.sweep_values) {
    BiasPoint p = bias.at(vg, vds);
    const SolveResult r = solver.solve(p, warm.empty() ? nullptr : &warm);
    warm = r.node_voltage;
    curve.terminal_currents.push_back(r.terminal_current);
    curve.solver_passes += r.nonlinear_iterations;
    if (!r.converged) ++curve.unconverged_points;
  }
  return curve;
}

IvCurve sweep_drain(const NetworkSolver& solver, const BiasCase& bias,
                    double vgs, double vd_first, double vd_last, int points) {
  FTL_EXPECTS(points >= 2);
  IvCurve curve;
  curve.label = bias.name + " Id-Vd @ Vgs=" + std::to_string(vgs);
  curve.sweep_variable = "Vds";
  curve.sweep_values = linalg::linspace(vd_first, vd_last, static_cast<std::size_t>(points));
  linalg::Vector warm;
  for (double vd : curve.sweep_values) {
    BiasPoint p = bias.at(vgs, vd);
    const SolveResult r = solver.solve(p, warm.empty() ? nullptr : &warm);
    warm = r.node_voltage;
    curve.terminal_currents.push_back(r.terminal_current);
    curve.solver_passes += r.nonlinear_iterations;
    if (!r.converged) ++curve.unconverged_points;
  }
  return curve;
}

SweepSetups run_paper_setups(const NetworkSolver& solver, const BiasCase& bias,
                             double vg_min, double vg_max, int points) {
  // The three set-ups are independent solves over the same (const, hence
  // shareable) solver, so they fan out as whole sweeps. The warm-start
  // continuation chain lives INSIDE each sweep — points within one sweep
  // stay sequential, which is what makes the chain worth having.
  SweepSetups s;
  util::parallel_for(3, [&](std::size_t i) {
    switch (i) {
      case 0: s.idvg_low = sweep_gate(solver, bias, 0.010, vg_min, vg_max, points); break;
      case 1: s.idvg_high = sweep_gate(solver, bias, 5.0, vg_min, vg_max, points); break;
      case 2: s.idvd = sweep_drain(solver, bias, 5.0, 0.0, 5.0, points); break;
    }
  });
  return s;
}

}  // namespace ftl::tcad
