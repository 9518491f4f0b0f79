#pragma once
// Test-only reference for the Monte-Carlo yield: the per-trial path, a
// fresh netlist build and a standalone dc_operating_point per (trial,
// code), serially. It shares nothing with bridge::monte_carlo_yield but
// netlist construction and the DC solver — not the shared retuned
// circuit, the corner batches or the worker chunks — and rolls its own
// copy of the dice derivation, so the tests and bench_spice_batch use it
// to check that the batched yield is bitwise what independent dies give.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "ftl/bridge/lattice_netlist.hpp"
#include "ftl/bridge/variability.hpp"
#include "ftl/spice/dcop.hpp"
#include "ftl/util/error.hpp"

namespace ftl::oracle {

/// monte_carlo_yield's contract, computed one die at a time. Trial t draws
/// from mt19937_64 seeded with splitmix64(seed, t): per cell a Vth shift,
/// then a Kp factor floored at 0.05.
inline bridge::VariabilityResult per_trial_yield(
    const lattice::Lattice& lattice, const logic::TruthTable& target,
    const bridge::VariabilityOptions& options) {
  FTL_EXPECTS(lattice.num_vars() == target.num_vars());
  FTL_EXPECTS(options.trials >= 1);
  const double vdd = options.circuit.vdd;
  const double v_low_limit = options.low_fraction * vdd;
  const double v_high_limit = options.high_fraction * vdd;
  const std::size_t cells = static_cast<std::size_t>(lattice.cell_count());

  bridge::VariabilityResult result;
  result.trials = options.trials;
  result.worst_low = 0.0;
  result.worst_high = vdd;
  for (int trial = 0; trial < options.trials; ++trial) {
    std::uint64_t z = options.seed + 0x9e3779b97f4a7c15ULL *
                                         (static_cast<std::uint64_t>(trial) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    std::mt19937_64 rng(z ^ (z >> 31));
    std::normal_distribution<double> gauss(0.0, 1.0);
    std::vector<double> dvth(cells), dkp(cells);
    for (std::size_t i = 0; i < cells; ++i) {
      dvth[i] = options.sigma_vth * gauss(rng);
      dkp[i] = std::max(1.0 + options.sigma_kp_rel * gauss(rng), 0.05);
    }

    bridge::LatticeCircuitOptions circuit_options = options.circuit;
    circuit_options.switch_param_fn =
        [&](int row, int col, const bridge::SwitchModelParams& nominal) {
          bridge::SwitchModelParams p = nominal;
          const std::size_t i =
              static_cast<std::size_t>(row * lattice.cols() + col);
          p.vth = nominal.vth + dvth[i];
          p.kp = nominal.kp * dkp[i];
          return p;
        };

    bool pass = true;
    for (std::uint64_t code = 0; code < target.num_minterms() && pass;
         ++code) {
      std::map<int, spice::Waveform> drives;
      for (int v = 0; v < target.num_vars(); ++v) {
        drives[v] = spice::Waveform::dc(((code >> v) & 1) != 0 ? vdd : 0.0);
      }
      bridge::LatticeCircuit lc =
          bridge::build_lattice_circuit(lattice, drives, circuit_options);
      spice::OpResult op;
      try {
        op = spice::dc_operating_point(lc.circuit);
      } catch (const ftl::Error&) {
        pass = false;  // a die whose operating point cannot be found fails
        break;
      }
      const double out = op.solution[static_cast<std::size_t>(
          lc.circuit.find_node(lc.output_node))];
      if (target.get(code)) {
        result.worst_low = std::max(result.worst_low, out);
        pass = op.converged && out < v_low_limit;
      } else {
        result.worst_high = std::min(result.worst_high, out);
        pass = op.converged && out > v_high_limit;
      }
    }
    if (pass) ++result.passing;
  }
  return result;
}

}  // namespace ftl::oracle
