// Linear-circuit DC tests against hand-solved networks: dividers, ladders,
// bridges, multiple sources, and branch-current bookkeeping.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "ftl/spice/circuit.hpp"
#include "ftl/spice/dcop.hpp"
#include "ftl/spice/devices.hpp"
#include "ftl/spice/sources.hpp"
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

double node_voltage(const Circuit& c, const OpResult& op, const std::string& name) {
  const int n = c.find_node(name);
  return n < 0 ? 0.0 : op.solution[static_cast<std::size_t>(n)];
}

TEST(LinearDc, VoltageDivider) {
  Circuit c;
  c.add(std::make_unique<VoltageSource>("V1", c.node("in"), Circuit::kGround,
                                        Waveform::dc(10.0)));
  c.add(std::make_unique<Resistor>("R1", c.node("in"), c.node("mid"), 1000.0));
  c.add(std::make_unique<Resistor>("R2", c.node("mid"), Circuit::kGround, 3000.0));
  const OpResult op = dc_operating_point(c);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(node_voltage(c, op, "mid"), 7.5, 1e-9);
}

TEST(LinearDc, SourceBranchCurrent) {
  Circuit c;
  auto& v1 = static_cast<VoltageSource&>(c.add(std::make_unique<VoltageSource>(
      "V1", c.node("a"), Circuit::kGround, Waveform::dc(5.0))));
  c.add(std::make_unique<Resistor>("R1", c.node("a"), Circuit::kGround, 500.0));
  const OpResult op = dc_operating_point(c);
  // 10 mA flows out of + through the external resistor, so the through-
  // source branch current is -10 mA.
  EXPECT_NEAR(v1.current(op.solution), -0.01, 1e-12);
}

TEST(LinearDc, ResistorLadder) {
  // 1 V across five series 1k resistors: taps at 0.8, 0.6, 0.4, 0.2 V.
  Circuit c;
  c.add(std::make_unique<VoltageSource>("V1", c.node("n0"), Circuit::kGround,
                                        Waveform::dc(1.0)));
  for (int i = 0; i < 5; ++i) {
    const std::string from = numbered("n", i);
    const std::string to = (i == 4) ? "0" : numbered("n", i + 1);
    c.add(std::make_unique<Resistor>(numbered("R", i), c.node(from),
                                     c.node(to), 1000.0));
  }
  const OpResult op = dc_operating_point(c);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_NEAR(node_voltage(c, op, numbered("n", i)),
                1.0 - 0.2 * i, 1e-9);
  }
}

TEST(LinearDc, WheatstoneBridgeBalanced) {
  // Balanced bridge: no voltage across the detector resistor.
  Circuit c;
  c.add(std::make_unique<VoltageSource>("V1", c.node("top"), Circuit::kGround,
                                        Waveform::dc(10.0)));
  c.add(std::make_unique<Resistor>("R1", c.node("top"), c.node("l"), 1000.0));
  c.add(std::make_unique<Resistor>("R2", c.node("top"), c.node("r"), 2000.0));
  c.add(std::make_unique<Resistor>("R3", c.node("l"), Circuit::kGround, 1000.0));
  c.add(std::make_unique<Resistor>("R4", c.node("r"), Circuit::kGround, 2000.0));
  c.add(std::make_unique<Resistor>("Rdet", c.node("l"), c.node("r"), 50.0));
  const OpResult op = dc_operating_point(c);
  EXPECT_NEAR(node_voltage(c, op, "l"), node_voltage(c, op, "r"), 1e-9);
  EXPECT_NEAR(node_voltage(c, op, "l"), 5.0, 1e-9);
}

TEST(LinearDc, CurrentSourceIntoResistor) {
  Circuit c;
  // 1 mA pushed into node "a" through a 2k resistor to ground: +2 V.
  c.add(std::make_unique<CurrentSource>("I1", Circuit::kGround, c.node("a"),
                                        Waveform::dc(1e-3)));
  c.add(std::make_unique<Resistor>("R1", c.node("a"), Circuit::kGround, 2000.0));
  const OpResult op = dc_operating_point(c);
  EXPECT_NEAR(node_voltage(c, op, "a"), 2.0, 1e-9);
}

TEST(LinearDc, SuperpositionOfTwoSources) {
  // Two sources, one resistive T network; solved by hand: with V1=6 on the
  // left, V2=3 on the right and 1k/1k/1k star, the middle sits at 3 V.
  Circuit c;
  c.add(std::make_unique<VoltageSource>("V1", c.node("a"), Circuit::kGround,
                                        Waveform::dc(6.0)));
  c.add(std::make_unique<VoltageSource>("V2", c.node("b"), Circuit::kGround,
                                        Waveform::dc(3.0)));
  c.add(std::make_unique<Resistor>("R1", c.node("a"), c.node("m"), 1000.0));
  c.add(std::make_unique<Resistor>("R2", c.node("b"), c.node("m"), 1000.0));
  c.add(std::make_unique<Resistor>("R3", c.node("m"), Circuit::kGround, 1000.0));
  const OpResult op = dc_operating_point(c);
  EXPECT_NEAR(node_voltage(c, op, "m"), 3.0, 1e-9);
}

TEST(LinearDc, FloatingNodeIsReportedAsError) {
  Circuit c;
  c.add(std::make_unique<VoltageSource>("V1", c.node("a"), Circuit::kGround,
                                        Waveform::dc(1.0)));
  c.add(std::make_unique<Resistor>("R1", c.node("a"), c.node("b"), 1000.0));
  // Node "b2" touches nothing but one resistor end left dangling via "b".
  c.add(std::make_unique<Resistor>("R2", c.node("b"), c.node("b"), 1000.0));
  // R2 connects b to itself — node b still has a path; but node "c" below
  // is genuinely floating.
  c.node("cfloat");
  EXPECT_THROW(dc_operating_point(c), ftl::Error);
}

TEST(Circuit, NodeManagement) {
  Circuit c;
  EXPECT_EQ(c.node("0"), Circuit::kGround);
  EXPECT_EQ(c.node("GND"), Circuit::kGround);
  const int a = c.node("a");
  EXPECT_EQ(c.node("a"), a);
  EXPECT_NE(c.node("b"), a);
  EXPECT_EQ(c.node_count(), 2);
  EXPECT_EQ(c.node_name(a), "a");
  EXPECT_THROW(c.find_node("zz"), ftl::Error);
}

TEST(Circuit, DuplicateDeviceNamesRejected) {
  Circuit c;
  c.add(std::make_unique<Resistor>("R1", c.node("a"), Circuit::kGround, 1.0));
  EXPECT_THROW(
      c.add(std::make_unique<Resistor>("R1", c.node("b"), Circuit::kGround, 1.0)),
      ftl::Error);
  EXPECT_TRUE(c.has_device("R1"));
  EXPECT_FALSE(c.has_device("R2"));
  EXPECT_THROW(c.device("R9"), ftl::Error);
}

TEST(Devices, InvalidValuesRejected) {
  Circuit c;
  EXPECT_THROW(Resistor("R1", 0, 1, -5.0), ftl::ContractViolation);
  EXPECT_THROW(Resistor("R1", 0, 1, 0.0), ftl::ContractViolation);
  EXPECT_THROW(Capacitor("C1", 0, 1, 0.0), ftl::ContractViolation);
}

TEST(LinearDc, ResistorCurrentHelper) {
  Circuit c;
  c.add(std::make_unique<VoltageSource>("V1", c.node("a"), Circuit::kGround,
                                        Waveform::dc(2.0)));
  auto& r = static_cast<Resistor&>(c.add(
      std::make_unique<Resistor>("R1", c.node("a"), Circuit::kGround, 100.0)));
  const OpResult op = dc_operating_point(c);
  EXPECT_NEAR(r.current(op.solution), 0.02, 1e-12);
}

}  // namespace
