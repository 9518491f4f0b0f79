// Transient analysis tests: RC networks against closed-form solutions,
// integrator accuracy ordering, source waveforms, and measurements.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>

#include "ftl/spice/devices.hpp"
#include "ftl/spice/measure.hpp"
#include "ftl/spice/mosfet.hpp"
#include "ftl/spice/sources.hpp"
#include "ftl/spice/transient.hpp"
#include "ftl/util/error.hpp"

namespace {

using namespace ftl::spice;

TEST(Waveforms, DcIsConstant) {
  const Waveform w = Waveform::dc(3.3);
  EXPECT_DOUBLE_EQ(w.value(0.0), 3.3);
  EXPECT_DOUBLE_EQ(w.value(1e-3), 3.3);
}

TEST(Waveforms, PulseShape) {
  const Waveform w = Waveform::pulse(0.0, 1.2, 10e-9, 2e-9, 4e-9, 20e-9, 0.0);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.0);          // before delay
  EXPECT_DOUBLE_EQ(w.value(10e-9), 0.0);        // at delay, rise starts
  EXPECT_NEAR(w.value(11e-9), 0.6, 1e-12);      // mid-rise
  EXPECT_DOUBLE_EQ(w.value(12e-9), 1.2);        // top
  EXPECT_DOUBLE_EQ(w.value(30e-9), 1.2);        // still on (width 20n)
  EXPECT_NEAR(w.value(34e-9), 0.6, 1e-12);      // mid-fall
  EXPECT_DOUBLE_EQ(w.value(40e-9), 0.0);        // back low
}

TEST(Waveforms, PulsePeriodRepeats) {
  const Waveform w = Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 3e-9, 10e-9);
  EXPECT_DOUBLE_EQ(w.value(2e-9), 1.0);
  EXPECT_DOUBLE_EQ(w.value(12e-9), 1.0);   // one period later
  EXPECT_DOUBLE_EQ(w.value(8e-9), 0.0);
  EXPECT_DOUBLE_EQ(w.value(18e-9), 0.0);
}

TEST(Waveforms, PwlInterpolatesAndClamps) {
  const Waveform w = Waveform::pwl({{0.0, 0.0}, {1.0, 2.0}, {3.0, 2.0}});
  EXPECT_DOUBLE_EQ(w.value(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.value(2.0), 2.0);
  EXPECT_DOUBLE_EQ(w.value(9.0), 2.0);
  EXPECT_THROW(Waveform::pwl({{1.0, 0.0}, {0.5, 1.0}}), ftl::ContractViolation);
}

TEST(Waveforms, SinShape) {
  const Waveform w = Waveform::sin(1.0, 0.5, 1e6);
  EXPECT_NEAR(w.value(0.0), 1.0, 1e-12);
  EXPECT_NEAR(w.value(0.25e-6), 1.5, 1e-9);  // quarter period: peak
  EXPECT_NEAR(w.value(0.75e-6), 0.5, 1e-9);
}

TEST(Waveforms, ComplementIsExactForAllKinds) {
  const double vdd = 1.2;
  const std::vector<Waveform> waves = {
      Waveform::dc(0.3),
      Waveform::pulse(0.0, 1.2, 5e-9, 1e-9, 2e-9, 10e-9, 40e-9),
      Waveform::pwl({{0.0, 0.0}, {1e-9, 1.2}, {5e-9, 0.6}}),
      Waveform::sin(0.6, 0.4, 1e7, 1e-9, 1e5),
  };
  for (const Waveform& w : waves) {
    const Waveform comp = w.complemented(vdd);
    for (double t = 0.0; t <= 50e-9; t += 0.5e-9) {
      EXPECT_NEAR(w.value(t) + comp.value(t), vdd, 1e-12) << t;
    }
  }
}

Circuit rc_circuit(double r, double cap, double vstep) {
  Circuit c;
  c.add(std::make_unique<VoltageSource>(
      "V1", c.node("in"), Circuit::kGround,
      Waveform::pulse(0.0, vstep, 0.0, 1e-15, 1e-15, 1.0, 0.0)));
  c.add(std::make_unique<Resistor>("R1", c.node("in"), c.node("out"), r));
  c.add(std::make_unique<Capacitor>("C1", c.node("out"), Circuit::kGround, cap));
  return c;
}

struct IntegratorCase {
  Integrator method;
  double expected_error;  // tolerated max deviation from the exponential
};

// Without a printer gtest dumps the struct's raw bytes, padding included, and
// the registered test names would change from build to build.
void PrintTo(const IntegratorCase& c, std::ostream* os) {
  *os << (c.method == Integrator::kBackwardEuler ? "BackwardEuler"
                                                 : "Trapezoidal");
}

class RcCharging : public ::testing::TestWithParam<IntegratorCase> {};

TEST_P(RcCharging, MatchesClosedForm) {
  const auto p = GetParam();
  const double r = 1000.0;
  const double cap = 1e-9;  // tau = 1 us
  Circuit c = rc_circuit(r, cap, 1.0);
  TransientOptions options;
  options.tstop = 5e-6;
  options.dt = 2e-8;  // tau / 50
  options.integrator = p.method;
  options.record_nodes = {"out"};
  const TransientResult result = transient(c, options);
  const auto& t = result.time();
  const auto& v = result.signal("out");
  double max_err = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double expected = 1.0 - std::exp(-t[i] / (r * cap));
    max_err = std::max(max_err, std::fabs(v[i] - expected));
  }
  EXPECT_LT(max_err, p.expected_error);
}

INSTANTIATE_TEST_SUITE_P(
    Integrators, RcCharging,
    ::testing::Values(IntegratorCase{Integrator::kBackwardEuler, 6e-3},
                      IntegratorCase{Integrator::kTrapezoidal, 5e-4}));

TEST(Transient, TrapezoidalBeatsBackwardEuler) {
  const double r = 1000.0;
  const double cap = 1e-9;
  const auto max_error = [&](Integrator method) {
    Circuit c = rc_circuit(r, cap, 1.0);
    TransientOptions options;
    options.tstop = 3e-6;
    options.dt = 5e-8;
    options.integrator = method;
    options.record_nodes = {"out"};
    const TransientResult result = transient(c, options);
    double err = 0.0;
    for (std::size_t i = 0; i < result.time().size(); ++i) {
      const double expected = 1.0 - std::exp(-result.time()[i] / (r * cap));
      err = std::max(err, std::fabs(result.signal("out")[i] - expected));
    }
    return err;
  };
  EXPECT_LT(max_error(Integrator::kTrapezoidal),
            0.2 * max_error(Integrator::kBackwardEuler));
}

TEST(Transient, InitialConditionFromDcOperatingPoint) {
  // The source starts at 1 V DC (pulse v1=1): the cap must start charged,
  // so the waveform is flat.
  Circuit c;
  c.add(std::make_unique<VoltageSource>(
      "V1", c.node("in"), Circuit::kGround,
      Waveform::pulse(1.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, 0.0)));
  c.add(std::make_unique<Resistor>("R1", c.node("in"), c.node("out"), 1000.0));
  c.add(std::make_unique<Capacitor>("C1", c.node("out"), Circuit::kGround, 1e-9));
  TransientOptions options;
  options.tstop = 1e-6;
  options.dt = 1e-8;
  options.record_nodes = {"out"};
  const TransientResult result = transient(c, options);
  for (double v : result.signal("out")) EXPECT_NEAR(v, 1.0, 1e-6);
}

TEST(Transient, RecordsSourceCurrent) {
  Circuit c = rc_circuit(1000.0, 1e-9, 1.0);
  TransientOptions options;
  options.tstop = 2e-6;
  options.dt = 2e-8;
  options.record_nodes = {"out"};
  options.record_source_currents = {"V1"};
  const TransientResult result = transient(c, options);
  ASSERT_TRUE(result.has_signal("I(V1)"));
  // Charging current starts near -1 mA (into the RC) and decays as
  // -exp(-t/tau); at tstop = 2 tau that is -135 uA.
  const auto& i = result.signal("I(V1)");
  EXPECT_NEAR(i[1], -1e-3, 1.5e-4);
  EXPECT_NEAR(i.back(), -1e-3 * std::exp(-2.0), 5e-6);
}

TEST(Transient, MosfetInverterSwitches) {
  Circuit c;
  c.add(std::make_unique<VoltageSource>("VDD", c.node("vdd"), Circuit::kGround,
                                        Waveform::dc(5.0)));
  c.add(std::make_unique<VoltageSource>(
      "VIN", c.node("in"), Circuit::kGround,
      Waveform::pulse(0.0, 5.0, 1e-7, 1e-9, 1e-9, 1e-7, 0.0)));
  c.add(std::make_unique<Resistor>("RD", c.node("vdd"), c.node("out"), 10000.0));
  c.add(std::make_unique<Capacitor>("CL", c.node("out"), Circuit::kGround, 1e-12));
  ftl::fit::Level1Params params;
  params.kp = 1e-4;
  params.vth = 1.0;
  c.add(std::make_unique<Mosfet>("M1", c.node("out"), c.node("in"),
                                 Circuit::kGround, Circuit::kGround, params));
  TransientOptions options;
  options.tstop = 3e-7;
  options.dt = 1e-9;
  options.record_nodes = {"out"};
  const TransientResult result = transient(c, options);
  const auto& t = result.time();
  const auto& out = result.signal("out");
  // High before the input step; after it, the ON level is the hand-solved
  // triode point 5 - sqrt(15) ≈ 1.127 V (weak 10k pull-down).
  const double v_on = 5.0 - std::sqrt(15.0);
  EXPECT_NEAR(ftl::spice::settled_value(t, out, 0.5e-7, 0.9e-7), 5.0, 0.01);
  EXPECT_NEAR(ftl::spice::settled_value(t, out, 1.8e-7, 2.0e-7), v_on, 0.02);
  const auto fall = fall_time(t, out, v_on, 5.0);
  ASSERT_TRUE(fall.has_value());
  EXPECT_GT(*fall, 0.0);
  EXPECT_LT(*fall, 1e-7);
}

TEST(Transient, RequiresPositiveTimes) {
  Circuit c = rc_circuit(1.0, 1e-9, 1.0);
  TransientOptions options;
  EXPECT_THROW(transient(c, options), ftl::ContractViolation);
}

TEST(Measure, RiseFallOnSyntheticRamp) {
  // 0->1 ramp between t=1 and t=2, then 1->0 between t=3 and t=4.
  ftl::linalg::Vector t{0, 1, 2, 3, 4, 5};
  ftl::linalg::Vector v{0, 0, 1, 1, 0, 0};
  const auto rise = rise_time(t, v, 0.0, 1.0);
  ASSERT_TRUE(rise.has_value());
  EXPECT_NEAR(*rise, 0.8, 1e-9);  // 10% to 90% of a unit ramp
  const auto fall = fall_time(t, v, 0.0, 1.0);
  ASSERT_TRUE(fall.has_value());
  EXPECT_NEAR(*fall, 0.8, 1e-9);
  EXPECT_FALSE(rise_time(t, v, 0.0, 1.0, 4.5).has_value());
}

TEST(Measure, SettledValueAverages) {
  ftl::linalg::Vector t{0, 1, 2, 3};
  ftl::linalg::Vector v{0, 2, 2, 2};
  EXPECT_NEAR(settled_value(t, v, 1.0, 3.0), 2.0, 1e-12);
  EXPECT_NEAR(settled_value(t, v, 0.0, 1.0), 1.0, 1e-12);  // ramp average
  EXPECT_THROW(settled_value(t, v, 5.0, 6.0), ftl::ContractViolation);
}

TEST(Measure, CrossingTime) {
  ftl::linalg::Vector t{0, 1, 2};
  ftl::linalg::Vector v{0, 1, 0};
  const auto up = crossing_time(t, v, 0.5, true);
  ASSERT_TRUE(up.has_value());
  EXPECT_NEAR(*up, 0.5, 1e-12);
  const auto down = crossing_time(t, v, 0.5, false, 1.0);
  ASSERT_TRUE(down.has_value());
  EXPECT_NEAR(*down, 1.5, 1e-12);
}

}  // namespace
