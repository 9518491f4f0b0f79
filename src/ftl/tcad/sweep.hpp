#pragma once
// The paper's three simulation set-ups (§III-B), producing per-terminal I-V
// curves:
//   1. IDS-VGS at VDS = 10 mV      2. IDS-VGS at VDS = 5 V
//   3. IDS-VDS at VGS = 5 V
// Sources are always at 0 V.

#include <array>
#include <string>
#include <vector>

#include "ftl/tcad/bias.hpp"
#include "ftl/tcad/network_solver.hpp"

namespace ftl::tcad {

/// One recorded sweep: per-point sweep value and all terminal currents.
struct IvCurve {
  std::string label;
  std::string sweep_variable;  ///< "Vgs" or "Vds"
  linalg::Vector sweep_values;
  std::vector<std::array<double, 4>> terminal_currents;
  /// Total nonlinear block-iteration passes spent across the sweep — the
  /// solver-cost counter the jobs telemetry surfaces per TCAD job.
  int solver_passes = 0;
  /// Points whose solve ran out its pass budget (SolveResult::converged
  /// false); the jobs telemetry reports it beside solver_passes.
  int unconverged_points = 0;

  /// |I| of one terminal along the sweep.
  linalg::Vector terminal_magnitude(int terminal) const;

  /// Total drain current (sum of currents at drain-role terminals).
  linalg::Vector drain_current(const BiasCase& bias) const;
};

struct SweepSetups {
  IvCurve idvg_low;   ///< IDS-VGS, VDS = 10 mV
  IvCurve idvg_high;  ///< IDS-VGS, VDS = 5 V
  IvCurve idvd;       ///< IDS-VDS, VGS = 5 V
};

/// Runs a gate sweep at fixed Vds.
IvCurve sweep_gate(const NetworkSolver& solver, const BiasCase& bias,
                   double vds, double vg_first, double vg_last, int points);

/// Runs a drain sweep at fixed Vgs.
IvCurve sweep_drain(const NetworkSolver& solver, const BiasCase& bias,
                    double vgs, double vd_first, double vd_last, int points);

/// All three paper set-ups for one device/bias case. `vg_min` extends the
/// gate sweeps below 0 V (needed to turn the depletion device off).
SweepSetups run_paper_setups(const NetworkSolver& solver, const BiasCase& bias,
                             double vg_min = 0.0, double vg_max = 5.0,
                             int points = 26);

}  // namespace ftl::tcad
