// Mesh construction and network-solver tests: geometry classification,
// Kirchhoff conservation, terminal symmetry, and bias-case behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "ftl/tcad/bias.hpp"
#include "ftl/tcad/current_density.hpp"
#include "ftl/tcad/extract.hpp"
#include "ftl/tcad/mesh.hpp"
#include "ftl/tcad/network_solver.hpp"
#include "ftl/tcad/sweep.hpp"
#include "ftl/util/error.hpp"

namespace {

using namespace ftl::tcad;

NetworkSolver make_solver(DeviceShape shape, GateDielectric diel,
                          int cells = 32) {
  const DeviceSpec spec = make_device(shape, diel);
  return NetworkSolver(build_mesh(spec, cells), ChargeSheetModel(spec));
}

TEST(Mesh, SquareDeviceHasAllFourElectrodesAndAGate) {
  const DeviceMesh mesh = build_mesh(
      make_device(DeviceShape::kSquare, GateDielectric::kHfO2), 48);
  std::array<int, 4> electrode_cells{};
  int gated = 0;
  for (int i = 0; i < mesh.cell_count(); ++i) {
    const int t = mesh.terminal[static_cast<std::size_t>(i)];
    if (t >= 0) ++electrode_cells[static_cast<std::size_t>(t)];
    if (mesh.region[static_cast<std::size_t>(i)] == Region::kGated) ++gated;
  }
  for (int t = 0; t < 4; ++t) EXPECT_GT(electrode_cells[static_cast<std::size_t>(t)], 0) << "T" << t + 1;
  EXPECT_GT(gated, 0);
  // Electrode counts are equal by symmetry.
  EXPECT_EQ(electrode_cells[0], electrode_cells[2]);
  EXPECT_EQ(electrode_cells[1], electrode_cells[3]);
}

TEST(Mesh, RegionsAreFourfoldSymmetric) {
  // A 90° rotation maps the region map onto itself for every device type.
  for (const DeviceShape shape :
       {DeviceShape::kSquare, DeviceShape::kCross, DeviceShape::kJunctionless}) {
    const DeviceMesh mesh =
        build_mesh(make_device(shape, GateDielectric::kHfO2), 40);
    const int n = mesh.cells_per_side;
    for (int iy = 0; iy < n; ++iy) {
      for (int ix = 0; ix < n; ++ix) {
        // (ix, iy) -> (n-1-iy, ix)
        EXPECT_EQ(mesh.region_at(ix, iy), mesh.region_at(n - 1 - iy, ix))
            << to_string(shape) << " at " << ix << "," << iy;
      }
    }
  }
}

TEST(Mesh, ActiveRegionConnectsOppositeElectrodes) {
  // Flood fill from T1 cells over non-outside cells must reach T3 cells.
  for (const DeviceShape shape :
       {DeviceShape::kSquare, DeviceShape::kCross, DeviceShape::kJunctionless}) {
    const DeviceMesh mesh =
        build_mesh(make_device(shape, GateDielectric::kHfO2), 48);
    const int n = mesh.cells_per_side;
    std::vector<bool> seen(static_cast<std::size_t>(mesh.cell_count()), false);
    std::vector<int> stack;
    for (int i = 0; i < mesh.cell_count(); ++i) {
      if (mesh.terminal[static_cast<std::size_t>(i)] == kT1North) {
        stack.push_back(i);
        seen[static_cast<std::size_t>(i)] = true;
      }
    }
    ASSERT_FALSE(stack.empty()) << to_string(shape);
    bool reached_t3 = false;
    while (!stack.empty()) {
      const int cell = stack.back();
      stack.pop_back();
      if (mesh.terminal[static_cast<std::size_t>(cell)] == kT3South) reached_t3 = true;
      const int ix = cell % n;
      const int iy = cell / n;
      const int nbrs[4] = {ix > 0 ? cell - 1 : -1, ix + 1 < n ? cell + 1 : -1,
                           iy > 0 ? cell - n : -1, iy + 1 < n ? cell + n : -1};
      for (int nb : nbrs) {
        if (nb < 0 || seen[static_cast<std::size_t>(nb)]) continue;
        if (mesh.region[static_cast<std::size_t>(nb)] == Region::kOutside) continue;
        seen[static_cast<std::size_t>(nb)] = true;
        stack.push_back(nb);
      }
    }
    EXPECT_TRUE(reached_t3) << to_string(shape);
  }
}

TEST(BiasCase, ParseAndRoles) {
  const BiasCase c = parse_bias_case("DSFF");
  EXPECT_EQ(c.roles[0], Role::kDrain);
  EXPECT_EQ(c.roles[1], Role::kSource);
  EXPECT_EQ(c.roles[2], Role::kFloat);
  EXPECT_EQ(c.drain_count(), 1);
  EXPECT_EQ(c.source_count(), 1);
  EXPECT_THROW(parse_bias_case("DSX"), ftl::Error);
  EXPECT_THROW(parse_bias_case("DSXF"), ftl::Error);
}

TEST(BiasCase, PaperListHasSixteenCases) {
  const auto& cases = paper_bias_cases();
  EXPECT_EQ(cases.size(), 16u);
  EXPECT_EQ(cases.front().name, "DSFF");
  // Composition: 2 + 4 + 6 + 4.
  int one_one = 0, one_three = 0, two_two = 0, three_one = 0;
  for (const auto& c : cases) {
    if (c.drain_count() == 1 && c.source_count() == 1) ++one_one;
    if (c.drain_count() == 1 && c.source_count() == 3) ++one_three;
    if (c.drain_count() == 2 && c.source_count() == 2) ++two_two;
    if (c.drain_count() == 3 && c.source_count() == 1) ++three_one;
  }
  EXPECT_EQ(one_one, 2);
  EXPECT_EQ(one_three, 4);
  EXPECT_EQ(two_two, 6);
  EXPECT_EQ(three_one, 4);
}

TEST(BiasCase, MaterializesBiasPoint) {
  const BiasPoint p = parse_bias_case("SDSS").at(3.0, 5.0);
  EXPECT_DOUBLE_EQ(p.gate, 3.0);
  EXPECT_DOUBLE_EQ(*p.terminal[0], 0.0);
  EXPECT_DOUBLE_EQ(*p.terminal[1], 5.0);
  EXPECT_DOUBLE_EQ(*p.terminal[2], 0.0);
}

TEST(Solver, ThrowsWhenNothingIsDriven) {
  const NetworkSolver solver = make_solver(DeviceShape::kSquare, GateDielectric::kHfO2, 16);
  BiasPoint p;
  p.gate = 5.0;
  EXPECT_THROW(solver.solve(p), ftl::Error);
}

TEST(Solver, CurrentConservationAcrossTerminals) {
  const NetworkSolver solver = make_solver(DeviceShape::kSquare, GateDielectric::kHfO2);
  const SolveResult r = solver.solve(parse_bias_case("DSSS").at(5.0, 5.0));
  ASSERT_TRUE(r.converged);
  // Kirchhoff: terminal currents sum to ~the (tiny) leakage imbalance.
  const double sum = r.terminal_current[0] + r.terminal_current[1] +
                     r.terminal_current[2] + r.terminal_current[3];
  const double scale = std::fabs(r.terminal_current[0]);
  // The drain leak current (G_leak * 5 V) is the only unbalanced term.
  EXPECT_LT(std::fabs(sum) - 5.0 * solver.model().terminal_leak_conductance(),
            1e-3 * scale + 1e-12);
}

TEST(Solver, DsssSourceCurrentsAreMirrorSymmetric) {
  // With T1 as drain, the east and west sources see mirror geometry.
  const NetworkSolver solver = make_solver(DeviceShape::kSquare, GateDielectric::kHfO2);
  const SolveResult r = solver.solve(parse_bias_case("DSSS").at(5.0, 5.0));
  EXPECT_NEAR(r.terminal_current[kT2East], r.terminal_current[kT4West],
              1e-6 * std::fabs(r.terminal_current[kT2East]) + 1e-15);
}

TEST(Solver, RotatedBiasCasesGiveEqualCurrents) {
  // DSSS with drain at T1 vs SDSS with drain at T2: the square device is
  // rotation symmetric, so drain currents must match.
  const NetworkSolver solver = make_solver(DeviceShape::kSquare, GateDielectric::kHfO2);
  const SolveResult a = solver.solve(parse_bias_case("DSSS").at(5.0, 5.0));
  const SolveResult b = solver.solve(parse_bias_case("SDSS").at(5.0, 5.0));
  EXPECT_NEAR(a.terminal_current[0], b.terminal_current[1],
              1e-6 * std::fabs(a.terminal_current[0]) + 1e-15);
}

TEST(Solver, GateControlsTheCurrent) {
  const NetworkSolver solver = make_solver(DeviceShape::kSquare, GateDielectric::kHfO2);
  const auto dsss = parse_bias_case("DSSS");
  const double on = solver.solve(dsss.at(5.0, 5.0)).terminal_current[0];
  const double off = solver.solve(dsss.at(-0.5, 5.0)).terminal_current[0];
  EXPECT_GT(on, 1e-4);
  EXPECT_GT(on / off, 1e4);
}

TEST(Solver, FloatingTerminalsCarryNoCurrent) {
  const NetworkSolver solver = make_solver(DeviceShape::kSquare, GateDielectric::kHfO2);
  const SolveResult r = solver.solve(parse_bias_case("DSFF").at(5.0, 5.0));
  EXPECT_DOUBLE_EQ(r.terminal_current[2], 0.0);
  EXPECT_DOUBLE_EQ(r.terminal_current[3], 0.0);
}

TEST(Solver, WarmStartReproducesTheSameAnswer) {
  const NetworkSolver solver = make_solver(DeviceShape::kCross, GateDielectric::kHfO2);
  const auto dsss = parse_bias_case("DSSS");
  const SolveResult cold = solver.solve(dsss.at(4.0, 5.0));
  const SolveResult warm = solver.solve(dsss.at(4.0, 5.0), &cold.node_voltage);
  EXPECT_NEAR(warm.terminal_current[0], cold.terminal_current[0],
              1e-5 * std::fabs(cold.terminal_current[0]));
  EXPECT_LE(warm.nonlinear_iterations, cold.nonlinear_iterations);
}

TEST(Sweep, GateSweepIsMonotone) {
  const NetworkSolver solver = make_solver(DeviceShape::kSquare, GateDielectric::kHfO2);
  const auto dsss = parse_bias_case("DSSS");
  const IvCurve c = sweep_gate(solver, dsss, 5.0, 0.0, 5.0, 11);
  const auto id = c.drain_current(dsss);
  for (std::size_t i = 1; i < id.size(); ++i) {
    EXPECT_GE(id[i], id[i - 1] * 0.999) << "at " << c.sweep_values[i];
  }
}

TEST(Sweep, DrainSweepSaturates) {
  const NetworkSolver solver = make_solver(DeviceShape::kSquare, GateDielectric::kHfO2);
  const auto dsss = parse_bias_case("DSSS");
  const IvCurve c = sweep_drain(solver, dsss, 5.0, 0.0, 5.0, 11);
  const auto id = c.drain_current(dsss);
  // Monotone rising...
  for (std::size_t i = 1; i < id.size(); ++i) EXPECT_GE(id[i], id[i - 1] * 0.999);
  // ...with a decreasing slope (saturation bending).
  const double early_slope = id[2] - id[1];
  const double late_slope = id[10] - id[9];
  EXPECT_LT(late_slope, 0.5 * early_slope);
}

TEST(Sweep, PaperBudgetLeavesNoPointUnconverged) {
  // The sweeps count points whose solve ran out its pass budget. DSFF's
  // floating terminals need ~100 block passes per biased point: a budget of
  // two leaves such a point unconverged, and the solve says so. Within the
  // default budget every point of both sweeps converges.
  const NetworkSolver solver = make_solver(DeviceShape::kSquare, GateDielectric::kHfO2, 16);
  const auto dsff = parse_bias_case("DSFF");
  SolverOptions starved;
  starved.max_passes = 2;
  const SolveResult r = solver.solve(dsff.at(5.0, 5.0), nullptr, starved);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.nonlinear_iterations, 2);
  EXPECT_EQ(sweep_gate(solver, dsff, 5.0, 0.0, 5.0, 5).unconverged_points, 0);
  EXPECT_EQ(sweep_drain(solver, dsff, 5.0, 0.0, 5.0, 5).unconverged_points, 0);
}

TEST(Extract, MaxGmThresholdOnSyntheticData) {
  // Perfect level-1 linear-region data: Id = K (Vg - 1.0) Vds for Vg > 1.
  ftl::linalg::Vector vgs;
  ftl::linalg::Vector id;
  const double vds = 0.01;
  for (double vg = 0.0; vg <= 5.0; vg += 0.1) {
    vgs.push_back(vg);
    id.push_back(vg > 1.0 ? 1e-4 * (vg - 1.0) * vds : 0.0);
  }
  EXPECT_NEAR(threshold_voltage_max_gm(vgs, id, vds), 1.0, 0.06);
}

TEST(Extract, OnOffRatioInterpolates) {
  const ftl::linalg::Vector vgs{0.0, 2.5, 5.0};
  const ftl::linalg::Vector id{1e-9, 1e-6, 1e-3};
  EXPECT_NEAR(on_off_ratio(vgs, id, 5.0, 0.0), 1e6, 1e4);
}

TEST(Extract, CoefficientOfVariation) {
  EXPECT_NEAR(coefficient_of_variation({1.0, 1.0, 1.0}), 0.0, 1e-12);
  EXPECT_GT(coefficient_of_variation({1.0, 3.0}), 0.4);
}

TEST(CurrentDensity, CrossIsMoreUniformThanSquare) {
  // The Fig. 8 claim, quantified: current crowding (Gini over |J| in the
  // channel) is lower for the cross-shaped gate.
  const auto square = make_solver(DeviceShape::kSquare, GateDielectric::kHfO2);
  const auto cross = make_solver(DeviceShape::kCross, GateDielectric::kHfO2);
  const BiasPoint bias = parse_bias_case("DSSS").at(5.0, 5.0);
  const CrowdingMetrics ms = crowding_metrics(square, bias);
  const CrowdingMetrics mc = crowding_metrics(cross, bias);
  EXPECT_LT(mc.gini, ms.gini);
  EXPECT_LT(mc.peak_over_mean, ms.peak_over_mean);
}

TEST(CurrentDensity, FieldCoversActiveCellsOnly) {
  const auto solver = make_solver(DeviceShape::kJunctionless, GateDielectric::kHfO2, 24);
  const auto field = current_density_field(solver, parse_bias_case("DSSS").at(2.0, 1.0));
  int active = 0;
  for (int i = 0; i < solver.mesh().cell_count(); ++i) {
    if (solver.mesh().region[static_cast<std::size_t>(i)] != Region::kOutside) ++active;
  }
  EXPECT_EQ(static_cast<int>(field.size()), active);
}

TEST(Solver, SparseLuBackendMatchesCg) {
  // The direct backend (factor-once u-block, refactored V-block) must land
  // on the same fixed point as the default CG backend, terminal currents
  // included — that is what keeps it trustworthy as a differential check.
  const NetworkSolver solver = make_solver(DeviceShape::kSquare,
                                           GateDielectric::kHfO2, 24);
  SolverOptions cg_opts;
  cg_opts.backend = LinearBackend::kCg;
  SolverOptions lu_opts;
  lu_opts.backend = LinearBackend::kSparseLu;
  for (const char* name : {"DSSS", "DSDS", "DSFF"}) {
    const BiasPoint bias = parse_bias_case(name).at(5.0, 5.0);
    const SolveResult rc = solver.solve(bias, nullptr, cg_opts);
    const SolveResult rl = solver.solve(bias, nullptr, lu_opts);
    ASSERT_TRUE(rc.converged);
    ASSERT_TRUE(rl.converged);
    double vmax = 1e-30;
    double dmax = 0.0;
    for (std::size_t i = 0; i < rc.node_voltage.size(); ++i) {
      vmax = std::max(vmax, std::fabs(rc.node_voltage[i]));
      dmax = std::max(dmax, std::fabs(rc.node_voltage[i] - rl.node_voltage[i]));
    }
    EXPECT_LT(dmax / vmax, 1e-9) << name;
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_NEAR(rl.terminal_current[t], rc.terminal_current[t],
                  1e-9 * std::max(std::fabs(rc.terminal_current[t]), 1e-12))
          << name << " T" << t + 1;
    }
  }
}

}  // namespace
