#include "ftl/bridge/variability.hpp"

#include <algorithm>
#include <array>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ftl/spice/dcop.hpp"
#include "ftl/spice/mosfet.hpp"
#include "ftl/spice/sources.hpp"
#include "ftl/util/error.hpp"
#include "ftl/util/thread_pool.hpp"

namespace ftl::bridge {
namespace {

/// splitmix64: decorrelates the per-trial seeds derived from (seed, trial).
/// Seeding mt19937_64 with `seed + trial` directly would hand adjacent
/// trials nearly identical initial states.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t trial) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (trial + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct TrialOutcome {
  bool pass = false;
  double worst_low = 0.0;
  double worst_high = 0.0;
};

/// One fixed perturbation per switch site for one trial — its own RNG
/// stream, per-cell Vth draw then Kp draw.
void trial_perturbations(const lattice::Lattice& lattice,
                         const VariabilityOptions& options, std::size_t trial,
                         std::vector<double>& dvth, std::vector<double>& dkp) {
  std::mt19937_64 rng(mix_seed(options.seed, trial));
  std::normal_distribution<double> gauss(0.0, 1.0);
  dvth.resize(static_cast<std::size_t>(lattice.cell_count()));
  dkp.resize(static_cast<std::size_t>(lattice.cell_count()));
  for (int i = 0; i < lattice.cell_count(); ++i) {
    dvth[static_cast<std::size_t>(i)] = options.sigma_vth * gauss(rng);
    dkp[static_cast<std::size_t>(i)] =
        std::max(1.0 + options.sigma_kp_rel * gauss(rng), 0.05);
  }
}

/// One worker's contiguous trial chunk: ONE netlist build for the whole
/// chunk, retuned in place per trial, with all still-passing trials solved
/// as corners of one spice::dcop_batch per input code. The circuit keeps
/// its symbolic LU analysis across codes, so the chunk pays one instead of
/// one per (trial, code).
void run_chunk(const lattice::Lattice& lattice,
               const logic::TruthTable& target,
               const VariabilityOptions& options, int trial_begin,
               int trial_end, std::vector<TrialOutcome>& outcomes) {
  const double vdd = options.circuit.vdd;
  const double v_low_limit = options.low_fraction * vdd;
  const double v_high_limit = options.high_fraction * vdd;
  const std::size_t cells = static_cast<std::size_t>(lattice.cell_count());

  // The chunk's dice, drawn up front.
  const std::size_t chunk = static_cast<std::size_t>(trial_end - trial_begin);
  std::vector<std::vector<double>> dvth(chunk), dkp(chunk);
  for (std::size_t k = 0; k < chunk; ++k) {
    trial_perturbations(lattice, options,
                        static_cast<std::size_t>(trial_begin) + k, dvth[k],
                        dkp[k]);
  }

  // One shared circuit. monte_carlo_yield owns the per-switch parameters,
  // so the nominal build drops any caller hook and every lane mutates from
  // nominal.
  LatticeCircuitOptions circuit_options = options.circuit;
  circuit_options.switch_param_fn = nullptr;
  LatticeCircuit lc = build_lattice_circuit(lattice, {}, circuit_options);

  // Mutation handles: the six transistors of every switch site (kPairs
  // order — four adjacent Type A, then ns/ew Type B)...
  static constexpr const char* kTags[6] = {"ne", "es", "sw", "wn", "ns", "ew"};
  std::vector<std::array<spice::Mosfet*, 6>> fets(cells);
  for (int r = 0; r < lattice.rows(); ++r) {
    for (int c = 0; c < lattice.cols(); ++c) {
      const std::size_t i = static_cast<std::size_t>(r * lattice.cols() + c);
      const std::string base =
          "Msw" + std::to_string(r) + "_" + std::to_string(c) + "_";
      for (std::size_t f = 0; f < 6; ++f) {
        fets[i][f] = dynamic_cast<spice::Mosfet*>(&lc.circuit.device(base + kTags[f]));
        FTL_EXPECTS(fets[i][f] != nullptr);
      }
    }
  }
  // ...and the input drivers (either phase of a variable may be absent).
  const int num_vars = target.num_vars();
  std::vector<spice::VoltageSource*> pos(static_cast<std::size_t>(num_vars),
                                         nullptr);
  std::vector<spice::VoltageSource*> neg(static_cast<std::size_t>(num_vars),
                                         nullptr);
  for (int v = 0; v < num_vars; ++v) {
    const std::string& name =
        lattice.var_names()[static_cast<std::size_t>(v)];
    if (lc.circuit.has_device("Vin_" + name)) {
      pos[static_cast<std::size_t>(v)] = dynamic_cast<spice::VoltageSource*>(
          &lc.circuit.device("Vin_" + name));
    }
    if (lc.circuit.has_device("Vin_" + name + "_n")) {
      neg[static_cast<std::size_t>(v)] = dynamic_cast<spice::VoltageSource*>(
          &lc.circuit.device("Vin_" + name + "_n"));
    }
  }
  const std::size_t out_index =
      static_cast<std::size_t>(lc.circuit.find_node(lc.output_node));
  const SwitchModelParams& nominal = options.circuit.switch_model;

  std::vector<int> active;
  for (int t = trial_begin; t < trial_end; ++t) {
    TrialOutcome& outcome = outcomes[static_cast<std::size_t>(t)];
    outcome.pass = true;
    outcome.worst_low = 0.0;
    outcome.worst_high = vdd;
    active.push_back(t);
  }

  for (std::uint64_t code = 0; code < target.num_minterms() && !active.empty();
       ++code) {
    // Retune the drivers to this input code — the same Waveform
    // construction build_lattice_circuit would have baked in.
    for (int v = 0; v < num_vars; ++v) {
      const spice::Waveform w =
          spice::Waveform::dc(((code >> v) & 1) != 0 ? vdd : 0.0);
      if (pos[static_cast<std::size_t>(v)] != nullptr) {
        pos[static_cast<std::size_t>(v)]->set_waveform(w);
      }
      if (neg[static_cast<std::size_t>(v)] != nullptr) {
        neg[static_cast<std::size_t>(v)]->set_waveform(w.complemented(vdd));
      }
    }

    const auto apply = [&](std::size_t lane) {
      const std::size_t k =
          static_cast<std::size_t>(active[lane] - trial_begin);
      for (std::size_t i = 0; i < cells; ++i) {
        SwitchModelParams p = nominal;
        p.vth = nominal.vth + dvth[k][i];
        p.kp = nominal.kp * dkp[k][i];
        const fit::Level1Params type_a = switch_level1_params(p, true);
        const fit::Level1Params type_b = switch_level1_params(p, false);
        for (std::size_t f = 0; f < 4; ++f) fets[i][f]->set_params(type_a);
        fets[i][4]->set_params(type_b);
        fets[i][5]->set_params(type_b);
      }
    };
    const std::vector<spice::BatchCornerResult> results =
        spice::dcop_batch(lc.circuit, active.size(), apply);

    std::vector<int> still;
    for (std::size_t lane = 0; lane < active.size(); ++lane) {
      TrialOutcome& outcome =
          outcomes[static_cast<std::size_t>(active[lane])];
      const spice::BatchCornerResult& r = results[lane];
      if (r.failed) {
        // A die whose operating point cannot be found is a failing die.
        outcome.pass = false;
        continue;
      }
      const double out = r.op.solution[out_index];
      if (target.get(code)) {
        outcome.worst_low = std::max(outcome.worst_low, out);
        outcome.pass = r.op.converged && out < v_low_limit;
      } else {
        outcome.worst_high = std::min(outcome.worst_high, out);
        outcome.pass = r.op.converged && out > v_high_limit;
      }
      if (outcome.pass) still.push_back(active[lane]);
    }
    active.swap(still);
  }
}

}  // namespace

VariabilityResult monte_carlo_yield(const lattice::Lattice& lattice,
                                    const logic::TruthTable& target,
                                    const VariabilityOptions& options) {
  FTL_EXPECTS(lattice.num_vars() == target.num_vars());
  FTL_EXPECTS(options.trials >= 1);
  FTL_EXPECTS(options.sigma_vth >= 0.0 && options.sigma_kp_rel >= 0.0);
  FTL_EXPECTS(options.max_threads >= 0);

  std::vector<TrialOutcome> outcomes(static_cast<std::size_t>(options.trials));
  // Threads split the batch, never a trial: one contiguous chunk of trials
  // per worker, each chunk with its own shared circuit. Chunk boundaries
  // cannot affect results — every trial's outcome is a pure function of its
  // own matrices — so any worker count reduces to the same answer.
  std::size_t workers =
      options.max_threads > 0
          ? static_cast<std::size_t>(options.max_threads)
          : static_cast<std::size_t>(std::thread::hardware_concurrency());
  if (workers == 0) workers = 1;
  workers = std::min(workers, static_cast<std::size_t>(options.trials));
  const std::size_t trials = static_cast<std::size_t>(options.trials);
  util::parallel_for(
      workers,
      [&](std::size_t w) {
        const int begin = static_cast<int>(trials * w / workers);
        const int end = static_cast<int>(trials * (w + 1) / workers);
        if (begin < end) {
          run_chunk(lattice, target, options, begin, end, outcomes);
        }
      },
      workers);

  VariabilityResult result;
  result.trials = options.trials;
  result.worst_low = 0.0;
  result.worst_high = options.circuit.vdd;
  for (const TrialOutcome& outcome : outcomes) {
    if (outcome.pass) ++result.passing;
    result.worst_low = std::max(result.worst_low, outcome.worst_low);
    result.worst_high = std::min(result.worst_high, outcome.worst_high);
  }
  return result;
}

}  // namespace ftl::bridge
