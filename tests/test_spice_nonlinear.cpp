// Nonlinear DC tests: MOSFET operating points against hand-solved circuits,
// Newton convergence, symmetric channel operation, and DC sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "ftl/spice/dcsweep.hpp"
#include "ftl/spice/dcop.hpp"
#include "ftl/spice/devices.hpp"
#include "ftl/spice/mosfet.hpp"
#include "ftl/spice/sources.hpp"
#include "ftl/util/error.hpp"

namespace {

using namespace ftl::spice;

ftl::fit::Level1Params test_params() {
  ftl::fit::Level1Params p;
  p.kp = 1e-4;
  p.vth = 1.0;
  p.lambda = 0.0;
  p.width = 1e-6;
  p.length = 1e-6;
  return p;
}

double node_voltage(const Circuit& c, const OpResult& op, const std::string& name) {
  const int n = c.find_node(name);
  return n < 0 ? 0.0 : op.solution[static_cast<std::size_t>(n)];
}

TEST(MosfetDc, SaturationOperatingPointByHand) {
  // VDD=5, Rd=10k from VDD to drain, gate at 3 V, source grounded.
  // Saturation: Id = 0.5*1e-4*(3-1)^2 = 200 uA -> Vd = 5 - 2 = 3 V.
  // Check consistency: Vds=3 > Vov=2 ✓ saturation.
  Circuit c;
  c.add(std::make_unique<VoltageSource>("VDD", c.node("vdd"), Circuit::kGround,
                                        Waveform::dc(5.0)));
  c.add(std::make_unique<VoltageSource>("VG", c.node("g"), Circuit::kGround,
                                        Waveform::dc(3.0)));
  c.add(std::make_unique<Resistor>("RD", c.node("vdd"), c.node("d"), 10000.0));
  c.add(std::make_unique<Mosfet>("M1", c.node("d"), c.node("g"),
                                 Circuit::kGround, Circuit::kGround,
                                 test_params()));
  const OpResult op = dc_operating_point(c);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(node_voltage(c, op, "d"), 3.0, 1e-5);
}

TEST(MosfetDc, TriodeOperatingPointByHand) {
  // Same circuit, gate at 5 V: Vov = 4. Guess triode:
  // Id = 1e-4 (4 Vd - Vd^2/2); KCL: (5-Vd)/10k = Id.
  // -> 5 - Vd = 4 Vd - Vd^2/2 -> Vd^2/2 - 5Vd + 5 = 0 -> Vd ≈ 1.0557.
  Circuit c;
  c.add(std::make_unique<VoltageSource>("VDD", c.node("vdd"), Circuit::kGround,
                                        Waveform::dc(5.0)));
  c.add(std::make_unique<VoltageSource>("VG", c.node("g"), Circuit::kGround,
                                        Waveform::dc(5.0)));
  c.add(std::make_unique<Resistor>("RD", c.node("vdd"), c.node("d"), 10000.0));
  c.add(std::make_unique<Mosfet>("M1", c.node("d"), c.node("g"),
                                 Circuit::kGround, Circuit::kGround,
                                 test_params()));
  const OpResult op = dc_operating_point(c);
  ASSERT_TRUE(op.converged);
  const double expected = 5.0 - std::sqrt(15.0);  // root of the quadratic
  EXPECT_NEAR(node_voltage(c, op, "d"), expected, 1e-5);
}

TEST(MosfetDc, DiodeConnectedDevice) {
  // Diode-connected (gate = drain) through 10k from 5 V:
  // Id = 0.5e-4 (V-1)^2 = (5-V)/1e4 -> solve: V ≈ 2.1010.
  Circuit c;
  c.add(std::make_unique<VoltageSource>("VDD", c.node("vdd"), Circuit::kGround,
                                        Waveform::dc(5.0)));
  c.add(std::make_unique<Resistor>("RD", c.node("vdd"), c.node("d"), 10000.0));
  c.add(std::make_unique<Mosfet>("M1", c.node("d"), c.node("d"),
                                 Circuit::kGround, Circuit::kGround,
                                 test_params()));
  const OpResult op = dc_operating_point(c);
  ASSERT_TRUE(op.converged);
  const double v = node_voltage(c, op, "d");
  EXPECT_NEAR(0.5e-4 * (v - 1.0) * (v - 1.0), (5.0 - v) / 1e4, 1e-8);
}

TEST(MosfetDc, CutoffLeavesDrainPulledUp) {
  Circuit c;
  c.add(std::make_unique<VoltageSource>("VDD", c.node("vdd"), Circuit::kGround,
                                        Waveform::dc(5.0)));
  c.add(std::make_unique<VoltageSource>("VG", c.node("g"), Circuit::kGround,
                                        Waveform::dc(0.5)));  // below Vth=1
  c.add(std::make_unique<Resistor>("RD", c.node("vdd"), c.node("d"), 10000.0));
  c.add(std::make_unique<Mosfet>("M1", c.node("d"), c.node("g"),
                                 Circuit::kGround, Circuit::kGround,
                                 test_params()));
  const OpResult op = dc_operating_point(c);
  EXPECT_NEAR(node_voltage(c, op, "d"), 5.0, 1e-3);
}

TEST(MosfetDc, ChannelIsSymmetric) {
  // Swap drain and source connections; the pass-gate still conducts.
  // Source follower topology: drain at VDD, source through resistor to gnd.
  Circuit c;
  c.add(std::make_unique<VoltageSource>("VDD", c.node("vdd"), Circuit::kGround,
                                        Waveform::dc(5.0)));
  c.add(std::make_unique<VoltageSource>("VG", c.node("g"), Circuit::kGround,
                                        Waveform::dc(3.0)));
  c.add(std::make_unique<Resistor>("RS", c.node("s"), Circuit::kGround, 10000.0));
  // Deliberately instantiate with drain/source textually swapped: node "s"
  // as the model's drain. The device must still operate (internal swap).
  c.add(std::make_unique<Mosfet>("M1", c.node("s"), c.node("g"), c.node("vdd"),
                                 Circuit::kGround, test_params()));
  const OpResult op = dc_operating_point(c);
  ASSERT_TRUE(op.converged);
  // Source follower: Vs = Vg - Vth - sqrt(2 Id / beta), Id = Vs/RS.
  const double vs = node_voltage(c, op, "s");
  const double id = vs / 10000.0;
  EXPECT_NEAR(vs, 3.0 - 1.0 - std::sqrt(2.0 * id / 1e-4), 1e-3);
}

TEST(MosfetDc, DrainCurrentHelperMatchesKcl) {
  Circuit c;
  c.add(std::make_unique<VoltageSource>("VDD", c.node("vdd"), Circuit::kGround,
                                        Waveform::dc(5.0)));
  c.add(std::make_unique<VoltageSource>("VG", c.node("g"), Circuit::kGround,
                                        Waveform::dc(3.0)));
  auto& rd = static_cast<Resistor&>(c.add(
      std::make_unique<Resistor>("RD", c.node("vdd"), c.node("d"), 10000.0)));
  auto& m = static_cast<Mosfet&>(c.add(std::make_unique<Mosfet>(
      "M1", c.node("d"), c.node("g"), Circuit::kGround, Circuit::kGround,
      test_params())));
  const OpResult op = dc_operating_point(c);
  EXPECT_NEAR(m.drain_current(op.solution), rd.current(op.solution), 1e-9);
}

TEST(MosfetDc, LambdaTiltsSaturation) {
  ftl::fit::Level1Params with_lambda = test_params();
  with_lambda.lambda = 0.1;
  Circuit c;
  c.add(std::make_unique<VoltageSource>("VD", c.node("d"), Circuit::kGround,
                                        Waveform::dc(4.0)));
  c.add(std::make_unique<VoltageSource>("VG", c.node("g"), Circuit::kGround,
                                        Waveform::dc(2.0)));
  auto& m = static_cast<Mosfet&>(c.add(std::make_unique<Mosfet>(
      "M1", c.node("d"), c.node("g"), Circuit::kGround, Circuit::kGround,
      with_lambda)));
  const OpResult op = dc_operating_point(c);
  // Id = 0.5e-4 * 1 * (1 + 0.1*4) = 70 uA.
  EXPECT_NEAR(m.drain_current(op.solution), 7e-5, 1e-9);
}

TEST(DcSweep, InverterTransferCurve) {
  // Resistor-load inverter: output falls monotonically as input rises.
  Circuit c;
  c.add(std::make_unique<VoltageSource>("VDD", c.node("vdd"), Circuit::kGround,
                                        Waveform::dc(5.0)));
  c.add(std::make_unique<VoltageSource>("VIN", c.node("in"), Circuit::kGround,
                                        Waveform::dc(0.0)));
  c.add(std::make_unique<Resistor>("RD", c.node("vdd"), c.node("out"), 20000.0));
  c.add(std::make_unique<Mosfet>("M1", c.node("out"), c.node("in"),
                                 Circuit::kGround, Circuit::kGround,
                                 test_params()));
  const auto values = ftl::linalg::linspace(0.0, 5.0, 26);
  const DcSweepResult sweep = dc_sweep(c, "VIN", values);
  ASSERT_TRUE(sweep.converged);
  ASSERT_EQ(sweep.solutions.size(), values.size());
  const int out = c.find_node("out");
  double prev = 1e9;
  for (const auto& sol : sweep.solutions) {
    const double v = sol[static_cast<std::size_t>(out)];
    EXPECT_LE(v, prev + 1e-9);
    prev = v;
  }
  // Ends: high at Vin=0; at Vin=5 the hand-solved triode point is
  // Vout^2 - 9 Vout + 5 = 0 -> (9 - sqrt(61)) / 2 ≈ 0.5949.
  EXPECT_NEAR(sweep.solutions.front()[static_cast<std::size_t>(out)], 5.0, 1e-3);
  EXPECT_NEAR(sweep.solutions.back()[static_cast<std::size_t>(out)],
              (9.0 - std::sqrt(61.0)) / 2.0, 1e-3);
}

TEST(DcSweep, RestoresSourceWaveform) {
  Circuit c;
  c.add(std::make_unique<VoltageSource>("VIN", c.node("in"), Circuit::kGround,
                                        Waveform::dc(2.5)));
  c.add(std::make_unique<Resistor>("R1", c.node("in"), Circuit::kGround, 1000.0));
  dc_sweep(c, "VIN", {0.0, 1.0});
  const auto& src = static_cast<const VoltageSource&>(c.device("VIN"));
  EXPECT_DOUBLE_EQ(src.waveform().dc_value(), 2.5);
}

TEST(DcSweep, RestoresSourceWaveformWhenTheSolveThrows) {
  Circuit c;
  c.add(std::make_unique<VoltageSource>("VIN", c.node("in"), Circuit::kGround,
                                        Waveform::dc(2.5)));
  c.add(std::make_unique<Resistor>("R1", c.node("in"), Circuit::kGround, 1000.0));
  c.set_presolve_hook(
      [](const Circuit&) { throw ftl::Error("lint: gate rejected"); });
  EXPECT_THROW(dc_sweep(c, "VIN", {0.0, 1.0}), ftl::Error);
  const auto& src = static_cast<const VoltageSource&>(c.device("VIN"));
  EXPECT_DOUBLE_EQ(src.waveform().dc_value(), 2.5);
}

}  // namespace
