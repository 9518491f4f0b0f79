#include "ftl/bridge/chain_netlist.hpp"

#include <memory>

#include "ftl/spice/dcop.hpp"
#include "ftl/spice/sources.hpp"
#include "ftl/util/error.hpp"

namespace ftl::bridge {

ChainCircuit build_switch_chain(int count, double supply_voltage,
                                double gate_voltage,
                                const SwitchModelParams& params) {
  FTL_EXPECTS(count >= 1);
  ChainCircuit out;
  out.supply_source = "Vsupply";
  out.gate_source = "Vgate";
  spice::Circuit& ckt = out.circuit;

  ckt.add(std::make_unique<spice::VoltageSource>(
      out.supply_source, ckt.node("n0"), spice::Circuit::kGround,
      spice::Waveform::dc(supply_voltage)));
  ckt.add(std::make_unique<spice::VoltageSource>(
      out.gate_source, ckt.node("g"), spice::Circuit::kGround,
      spice::Waveform::dc(gate_voltage)));

  // Strings are built incrementally; `"n" + std::to_string(i)` trips GCC 12's
  // -Wrestrict false positive (PR 105651) under -O2.
  const auto numbered = [](const char* prefix, int i) {
    std::string name = prefix;
    name += std::to_string(i);
    return name;
  };
  for (int i = 0; i < count; ++i) {
    const std::string north = numbered("n", i);
    const std::string south = (i == count - 1) ? "0" : numbered("n", i + 1);
    add_four_terminal_switch(ckt, numbered("ch", i),
                             {north, numbered("de", i), south, numbered("dw", i)},
                             "g", params);
  }
  return out;
}

double chain_current(int count, double supply_voltage, double gate_voltage,
                     const SwitchModelParams& params) {
  ChainCircuit chain = build_switch_chain(count, supply_voltage, gate_voltage, params);
  const spice::OpResult op = spice::dc_operating_point(chain.circuit);
  if (!op.converged) throw ftl::Error("chain_current: DC did not converge");
  const auto& supply = dynamic_cast<const spice::VoltageSource&>(
      chain.circuit.device(chain.supply_source));
  // The MNA branch current flows from + through the source; the current
  // delivered into the chain is its negative.
  return -supply.current(op.solution);
}

std::vector<double> chain_current_batch(int count,
                                        const std::vector<double>& supply_voltages,
                                        const std::vector<double>& gate_voltages,
                                        const SwitchModelParams& params) {
  FTL_EXPECTS(!supply_voltages.empty());
  FTL_EXPECTS(supply_voltages.size() == gate_voltages.size());
  ChainCircuit chain =
      build_switch_chain(count, supply_voltages[0], gate_voltages[0], params);
  auto& supply = dynamic_cast<spice::VoltageSource&>(
      chain.circuit.device(chain.supply_source));
  auto& gate = dynamic_cast<spice::VoltageSource&>(
      chain.circuit.device(chain.gate_source));
  const auto results = spice::dcop_batch(
      chain.circuit, supply_voltages.size(), [&](std::size_t lane) {
        supply.set_waveform(spice::Waveform::dc(supply_voltages[lane]));
        gate.set_waveform(spice::Waveform::dc(gate_voltages[lane]));
      });
  std::vector<double> currents(results.size());
  for (std::size_t lane = 0; lane < results.size(); ++lane) {
    const spice::BatchCornerResult& r = results[lane];
    if (r.failed) throw ftl::Error(r.error);
    if (!r.op.converged) {
      throw ftl::Error("chain_current: DC did not converge");
    }
    currents[lane] = -supply.current(r.op.solution);
  }
  return currents;
}

double voltage_for_current(int count, double target_current, double v_max,
                           const SwitchModelParams& params) {
  FTL_EXPECTS(target_current > 0.0 && v_max > 0.0);
  // The bisection is inherently sequential (each probe depends on the last
  // bracket), so its probes cannot be laid out as one batch up front — but
  // it retunes one circuit exactly as dcop_batch does, so the circuit's
  // solver reuses its cached pattern and symbolic analysis across the 61
  // solves. Fresh-build and retuned circuits assemble bitwise-identical
  // matrices, so the bracket sequence matches the per-point path exactly.
  ChainCircuit chain = build_switch_chain(count, v_max, v_max, params);
  auto& supply = dynamic_cast<spice::VoltageSource&>(
      chain.circuit.device(chain.supply_source));
  auto& gate = dynamic_cast<spice::VoltageSource&>(
      chain.circuit.device(chain.gate_source));
  const auto current_at = [&](double volts) {
    supply.set_waveform(spice::Waveform::dc(volts));
    gate.set_waveform(spice::Waveform::dc(volts));
    const spice::OpResult op = spice::dc_operating_point(chain.circuit);
    if (!op.converged) throw ftl::Error("chain_current: DC did not converge");
    return -supply.current(op.solution);
  };
  double lo = 0.0;
  double hi = v_max;
  if (current_at(hi) < target_current) {
    throw ftl::Error("voltage_for_current: target unreachable below v_max");
  }
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (current_at(mid) < target_current) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace ftl::bridge
