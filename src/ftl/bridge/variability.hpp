#pragma once
// Monte-Carlo process-variation analysis of lattice gates. Nanoscale
// four-terminal switches will spread in Vth and Kp from die to die; this
// module perturbs every switch instance independently and asks how often
// the gate still computes its function at static noise margins — the yield
// question a feasibility study like the paper's ultimately feeds.

#include <cstdint>

#include "ftl/bridge/lattice_netlist.hpp"
#include "ftl/logic/truth_table.hpp"

namespace ftl::bridge {

struct VariabilityOptions {
  double sigma_vth = 0.0;     ///< std-dev of the per-switch Vth shift, V
  double sigma_kp_rel = 0.0;  ///< relative std-dev of per-switch Kp
  int trials = 200;
  std::uint64_t seed = 1;
  /// Thread fan-out across trials: 0 = hardware concurrency, 1 = serial.
  /// The result is identical for every setting — each trial derives its own
  /// RNG stream from (seed, trial index) and results reduce in trial order.
  /// Each thread takes one contiguous chunk of trials (threads split the
  /// batch, never a trial).
  int max_threads = 0;
  /// Bench circuit; its switch_param_fn is replaced by each trial's dice.
  LatticeCircuitOptions circuit;
  /// Logic thresholds as fractions of VDD for the pass/fail decision.
  double low_fraction = 1.0 / 3.0;
  double high_fraction = 2.0 / 3.0;
};

struct VariabilityResult {
  int trials = 0;
  int passing = 0;            ///< trials whose full truth table is correct
  double worst_low = 0.0;     ///< highest low-state output seen, V
  double worst_high = 0.0;    ///< lowest high-state output seen, V

  double yield() const {
    return trials > 0 ? static_cast<double>(passing) / trials : 0.0;
  }
};

/// Runs `options.trials` Monte-Carlo instances of the §V resistor-pull-up
/// bench for `lattice`, each with every switch's Vth and Kp independently
/// perturbed (Gaussian), and checks the full DC truth table against
/// `target`. Deterministic for a fixed seed.
///
/// Each worker chunk builds the netlist once and, per input code, solves
/// its still-passing trials as corners of one spice::dcop_batch, retuning
/// the switches in place — one symbolic LU analysis for the whole chunk.
/// Every trial's verdict still equals a fresh netlist build and standalone
/// dc_operating_point per (trial, code); the tests hold it to that.
VariabilityResult monte_carlo_yield(const lattice::Lattice& lattice,
                                    const logic::TruthTable& target,
                                    const VariabilityOptions& options);

}  // namespace ftl::bridge
