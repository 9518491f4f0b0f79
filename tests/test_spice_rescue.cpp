// Convergence-rescue tests: circuits engineered to defeat plain Newton so
// the gmin-stepping and adaptive source-stepping ladders must engage, plus
// transient step-halving.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "ftl/spice/dcop.hpp"
#include "ftl/spice/devices.hpp"
#include "ftl/spice/mosfet.hpp"
#include "ftl/spice/sources.hpp"
#include "ftl/spice/transient.hpp"
#include "ftl/util/error.hpp"

namespace {

using namespace ftl::spice;

/// `prefix` followed by `i`. Built incrementally: `"n" + std::to_string(i)`
/// trips GCC 12's -Wrestrict false positive (PR 105651) under -O2.
std::string numbered(const char* prefix, int i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

ftl::fit::Level1Params sharp_device() {
  // Very steep device: large Kp makes the Newton landscape stiff.
  ftl::fit::Level1Params p;
  p.kp = 5e-2;
  p.vth = 0.2;
  p.lambda = 0.0;
  p.width = 1e-6;
  p.length = 1e-6;
  return p;
}

TEST(Rescue, LongPassGateLadderConverges) {
  // 24 pass transistors in series between 5 V and ground, all gates at a
  // separate rail: interior nodes start far from their solution, which is
  // exactly the shape that needs the rescue ladders.
  Circuit c;
  c.add(std::make_unique<VoltageSource>("VS", c.node("n0"), Circuit::kGround,
                                        Waveform::dc(5.0)));
  c.add(std::make_unique<VoltageSource>("VG", c.node("g"), Circuit::kGround,
                                        Waveform::dc(5.0)));
  const int stages = 24;
  for (int i = 0; i < stages; ++i) {
    const std::string d = numbered("n", i);
    const std::string s = (i == stages - 1) ? "0" : numbered("n", i + 1);
    c.add(std::make_unique<Mosfet>(numbered("M", i), c.node(d),
                                   c.node("g"), c.node(s), Circuit::kGround,
                                   sharp_device()));
  }
  const OpResult op = dc_operating_point(c);
  ASSERT_TRUE(op.converged);
  // The interior node voltages must be a monotone ladder from 5 V to 0.
  double prev = 5.0 + 1e-9;
  for (int i = 0; i < stages; ++i) {
    const double v =
        op.solution[static_cast<std::size_t>(c.find_node(numbered("n", i)))];
    EXPECT_LE(v, prev + 1e-9) << i;
    EXPECT_GE(v, -1e-6);
    prev = v;
  }
}

TEST(Rescue, StiffFeedbackPairConverges) {
  // Diode-connected stack with a huge-Kp device: plain Newton from zero
  // overshoots; the clamp plus ladders must still land it.
  Circuit c;
  c.add(std::make_unique<VoltageSource>("VDD", c.node("vdd"), Circuit::kGround,
                                        Waveform::dc(5.0)));
  c.add(std::make_unique<Resistor>("R1", c.node("vdd"), c.node("a"), 100.0));
  c.add(std::make_unique<Mosfet>("M1", c.node("a"), c.node("a"), c.node("b"),
                                 Circuit::kGround, sharp_device()));
  c.add(std::make_unique<Mosfet>("M2", c.node("b"), c.node("b"),
                                 Circuit::kGround, Circuit::kGround,
                                 sharp_device()));
  const OpResult op = dc_operating_point(c);
  ASSERT_TRUE(op.converged);
  const double va = op.solution[static_cast<std::size_t>(c.find_node("a"))];
  const double vb = op.solution[static_cast<std::size_t>(c.find_node("b"))];
  EXPECT_GT(va, vb);
  EXPECT_GT(vb, 0.0);
  EXPECT_LT(va, 5.0);
}

TEST(Rescue, SourceSteppingIsOrderIndependentOfDeviceInsertion) {
  // The same circuit built in two different device orders must land on the
  // same operating point (the ladders must not depend on stamp order).
  const auto build = [](bool reversed) {
    auto c = std::make_unique<Circuit>();
    c->add(std::make_unique<VoltageSource>("VDD", c->node("vdd"),
                                           Circuit::kGround, Waveform::dc(3.0)));
    std::vector<std::unique_ptr<Device>> devices;
    devices.push_back(std::make_unique<Resistor>("R1", c->node("vdd"),
                                                 c->node("x"), 1000.0));
    devices.push_back(std::make_unique<Mosfet>("M1", c->node("x"), c->node("x"),
                                               Circuit::kGround, Circuit::kGround,
                                               sharp_device()));
    if (reversed) std::swap(devices[0], devices[1]);
    for (auto& d : devices) c->add(std::move(d));
    return c;
  };
  auto c1 = build(false);
  auto c2 = build(true);
  const OpResult op1 = dc_operating_point(*c1);
  const OpResult op2 = dc_operating_point(*c2);
  EXPECT_NEAR(op1.solution[static_cast<std::size_t>(c1->find_node("x"))],
              op2.solution[static_cast<std::size_t>(c2->find_node("x"))], 1e-6);
}

TEST(Rescue, TransientStepHalvingSurvivesFastEdges) {
  // A pulse edge much faster than dt forces the engine to land exactly on
  // the breakpoints and halve steps; the final value must still be right.
  Circuit c;
  c.add(std::make_unique<VoltageSource>(
      "V1", c.node("in"), Circuit::kGround,
      Waveform::pulse(0.0, 2.0, 50e-9, 1e-12, 1e-12, 1.0, 0.0)));
  c.add(std::make_unique<Resistor>("R1", c.node("in"), c.node("out"), 100.0));
  c.add(std::make_unique<Capacitor>("C1", c.node("out"), Circuit::kGround, 1e-12));
  TransientOptions options;
  options.tstop = 200e-9;
  options.dt = 10e-9;  // 10^4 times the edge duration
  options.record_nodes = {"out"};
  // Backward Euler (L-stable) settles the stiff edge exactly.
  options.integrator = Integrator::kBackwardEuler;
  const TransientResult be = transient(c, options);
  EXPECT_NEAR(be.signal("out").back(), 2.0, 1e-6);
  EXPECT_NEAR(be.signal("out").front(), 0.0, 1e-9);
  // Trapezoidal is only A-stable: with dt = 100 tau it rings with decay
  // ratio ~0.96 per step, so after 15 steps ~1% residual remains — the
  // documented reason SPICE defaults pair trap with LTE control.
  options.integrator = Integrator::kTrapezoidal;
  const TransientResult trap = transient(c, options);
  EXPECT_NEAR(trap.signal("out").back(), 2.0, 0.05);
}

}  // namespace
