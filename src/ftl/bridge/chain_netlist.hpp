#pragma once
// Series chains of four-terminal switches for the Fig. 12 drive-capability
// experiments: N switches in series (through their opposite N-S terminals)
// between the supply and ground, all gates held at the gate voltage.

#include <string>
#include <vector>

#include "ftl/bridge/switch_model.hpp"
#include "ftl/spice/circuit.hpp"

namespace ftl::bridge {

struct ChainCircuit {
  spice::Circuit circuit;
  std::string supply_source;  ///< name of the chain supply (measure I here)
  std::string gate_source;
};

/// Builds `count` switches in series. The supply drives the first switch's
/// N terminal; the last switch's S terminal is grounded. E/W terminals
/// dangle, as in a 1-wide lattice column.
ChainCircuit build_switch_chain(int count, double supply_voltage,
                                double gate_voltage,
                                const SwitchModelParams& params = paper_switch_model());

/// DC current drawn from the chain supply at the given voltages (Fig. 12a
/// points). Positive for current flowing out of the supply into the chain.
double chain_current(int count, double supply_voltage, double gate_voltage,
                     const SwitchModelParams& params = paper_switch_model());

/// All Fig. 12a points of one chain length in a single shot: one circuit,
/// one symbolic LU analysis, lane k solved at (supply_voltages[k],
/// gate_voltages[k]) as a corner of spice::dcop_batch. Bitwise identical to
/// calling chain_current per point; throws (like chain_current) if any
/// point fails to converge. The two vectors must have equal, nonzero size.
std::vector<double> chain_current_batch(
    int count, const std::vector<double>& supply_voltages,
    const std::vector<double>& gate_voltages,
    const SwitchModelParams& params = paper_switch_model());

/// Supply voltage needed to push `target_current` through the chain
/// (Fig. 12b points), found by bisection on [0, v_max]. The gate rail
/// tracks the supply (as it must for the upper switches to stay on once the
/// supply exceeds the 1.2 V logic level).
double voltage_for_current(int count, double target_current,
                           double v_max = 10.0,
                           const SwitchModelParams& params = paper_switch_model());

}  // namespace ftl::bridge
