#include "ftl/bridge/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "ftl/spice/dcop.hpp"
#include "ftl/spice/measure.hpp"
#include "ftl/spice/transient.hpp"
#include "ftl/util/error.hpp"

namespace ftl::bridge {
namespace {

/// Gray code walk: consecutive phases differ in one input, so every output
/// transition is attributable to a single input edge.
std::uint64_t gray(std::uint64_t i) { return i ^ (i >> 1); }

}  // namespace

GateMetrics measure_gate(const GateBuilder& build, const logic::TruthTable& f,
                         int switch_count, const MeasureOptions& options) {
  FTL_EXPECTS(f.num_vars() >= 1 && f.num_vars() <= 6);
  const double vdd = options.circuit.vdd;
  const int num_vars = f.num_vars();
  const std::uint64_t num_codes = f.num_minterms();

  GateMetrics m;
  m.switch_count = switch_count;

  // ---- Static characterization: one DC operating point per code ----------
  // All 2^n bias cases run as corners of one dcop_batch over a single built
  // circuit: one symbolic LU analysis, retuned input drives per corner —
  // bitwise identical to building and solving each code standalone.
  m.functional = true;
  m.output_low_max = 0.0;
  m.output_high_min = vdd;
  double power_sum = 0.0;
  std::vector<double> static_power(static_cast<std::size_t>(num_codes), 0.0);
  {
    std::map<int, spice::Waveform> drives;
    for (int v = 0; v < num_vars; ++v) {
      drives[v] = spice::Waveform::dc(0.0);
    }
    LatticeCircuit lc = build(drives);
    std::vector<spice::VoltageSource*> pos(static_cast<std::size_t>(num_vars),
                                           nullptr);
    std::vector<spice::VoltageSource*> neg(static_cast<std::size_t>(num_vars),
                                           nullptr);
    for (int v = 0; v < num_vars; ++v) {
      const std::string& name = lc.var_names[static_cast<std::size_t>(v)];
      if (lc.circuit.has_device("Vin_" + name)) {
        pos[static_cast<std::size_t>(v)] = dynamic_cast<spice::VoltageSource*>(
            &lc.circuit.device("Vin_" + name));
      }
      if (lc.circuit.has_device("Vin_" + name + "_n")) {
        neg[static_cast<std::size_t>(v)] = dynamic_cast<spice::VoltageSource*>(
            &lc.circuit.device("Vin_" + name + "_n"));
      }
    }
    const auto& supply = dynamic_cast<const spice::VoltageSource&>(
        lc.circuit.device(lc.vdd_source));
    const std::size_t out_index =
        static_cast<std::size_t>(lc.circuit.find_node(lc.output_node));

    const auto results = spice::dcop_batch(
        lc.circuit, static_cast<std::size_t>(num_codes), [&](std::size_t lane) {
          const std::uint64_t code = static_cast<std::uint64_t>(lane);
          for (int v = 0; v < num_vars; ++v) {
            const spice::Waveform w =
                spice::Waveform::dc(((code >> v) & 1) != 0 ? vdd : 0.0);
            if (pos[static_cast<std::size_t>(v)] != nullptr) {
              pos[static_cast<std::size_t>(v)]->set_waveform(w);
            }
            if (neg[static_cast<std::size_t>(v)] != nullptr) {
              neg[static_cast<std::size_t>(v)]->set_waveform(
                  w.complemented(vdd));
            }
          }
        });
    for (std::uint64_t code = 0; code < num_codes; ++code) {
      const spice::BatchCornerResult& r =
          results[static_cast<std::size_t>(code)];
      if (r.failed) throw ftl::Error(r.error);
      const spice::OpResult& op = r.op;
      const double out = op.solution[out_index];
      const double power = vdd * std::fabs(supply.current(op.solution));
      static_power[static_cast<std::size_t>(code)] = power;
      power_sum += power;
      m.static_power_worst = std::max(m.static_power_worst, power);

      // Both topologies invert: f = 1 pulls the output low.
      if (f.get(code)) {
        m.output_low_max = std::max(m.output_low_max, out);
        m.functional = m.functional && op.converged && out < vdd / 3.0;
      } else {
        m.output_high_min = std::min(m.output_high_min, out);
        m.functional = m.functional && op.converged && out > 2.0 * vdd / 3.0;
      }
    }
  }
  m.static_power_mean = power_sum / static_cast<double>(num_codes);

  // A non-functional gate has no meaningful timing (its "low" and "high"
  // rails may even be inverted); report the static findings and stop.
  if (!m.functional || m.output_high_min <= m.output_low_max) {
    m.functional = false;
    return m;
  }

  // ---- Transient walk over all codes in Gray order ------------------------
  const double phase = options.phase_time;
  std::vector<std::uint64_t> sequence;
  for (std::uint64_t i = 0; i <= num_codes; ++i) {
    sequence.push_back(gray(i % num_codes));  // wrap to return to the start
  }
  std::map<int, spice::Waveform> drives;
  for (int v = 0; v < num_vars; ++v) {
    std::vector<std::pair<double, double>> points;
    points.emplace_back(0.0, ((sequence[0] >> v) & 1) != 0 ? vdd : 0.0);
    for (std::size_t k = 1; k < sequence.size(); ++k) {
      const double prev = ((sequence[k - 1] >> v) & 1) != 0 ? vdd : 0.0;
      const double next = ((sequence[k] >> v) & 1) != 0 ? vdd : 0.0;
      if (prev != next) {
        points.emplace_back(k * phase, prev);
        points.emplace_back(k * phase + 1e-9, next);
      }
    }
    points.emplace_back(sequence.size() * phase,
                        ((sequence.back() >> v) & 1) != 0 ? vdd : 0.0);
    drives[v] = spice::Waveform::pwl(std::move(points));
  }

  LatticeCircuit lc = build(drives);
  spice::TransientOptions topt;
  topt.tstop = sequence.size() * phase;
  topt.dt = options.dt;
  topt.record_nodes = {lc.output_node};
  topt.record_source_currents = {lc.vdd_source};
  const spice::TransientResult tr = spice::transient(lc.circuit, topt);
  const auto& t = tr.time();
  const auto& out = tr.signal(lc.output_node);
  const auto& i_vdd = tr.signal("I(" + lc.vdd_source + ")");

  // Worst rise/fall between the measured static rails; worst propagation
  // delay from the phase boundary to the Vdd/2 crossing.
  const double v_lo = m.output_low_max;
  const double v_hi = m.output_high_min;
  int transitions = 0;
  for (std::size_t k = 1; k < sequence.size(); ++k) {
    const bool before = f.get(sequence[k - 1]);
    const bool after = f.get(sequence[k]);
    if (before == after) continue;
    ++transitions;
    const double edge = k * phase;
    if (after) {
      // Output falls (f became 1).
      const auto fall = spice::fall_time(t, out, v_lo, v_hi, edge);
      if (fall) m.fall_time = std::max(m.fall_time, *fall);
    } else {
      const auto rise = spice::rise_time(t, out, v_lo, v_hi, edge);
      if (rise) m.rise_time = std::max(m.rise_time, *rise);
    }
    const auto cross = spice::crossing_time(t, out, vdd / 2.0, !after, edge);
    if (cross) {
      m.propagation_delay = std::max(m.propagation_delay, *cross - edge);
    }
  }
  if (m.rise_time > 0.0 && m.fall_time > 0.0) {
    m.max_frequency = 1.0 / (m.rise_time + m.fall_time);
  }

  // Energy: total supply energy minus the per-phase static dissipation.
  double supply_energy = 0.0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    const double p0 = vdd * std::fabs(i_vdd[i - 1]);
    const double p1 = vdd * std::fabs(i_vdd[i]);
    supply_energy += 0.5 * (p0 + p1) * (t[i] - t[i - 1]);
  }
  double static_energy = 0.0;
  for (std::size_t k = 0; k < sequence.size(); ++k) {
    static_energy += static_power[static_cast<std::size_t>(sequence[k])] * phase;
  }
  if (transitions > 0) {
    m.energy_per_transition =
        std::max(supply_energy - static_energy, 0.0) / transitions;
  }
  return m;
}

GateMetrics measure_resistor_gate(const lattice::Lattice& lattice,
                                  const logic::TruthTable& f,
                                  const MeasureOptions& options) {
  return measure_gate(
      [&](const std::map<int, spice::Waveform>& drives) {
        return build_lattice_circuit(lattice, drives, options.circuit);
      },
      f, lattice.cell_count(), options);
}

GateMetrics measure_complementary_gate(const lattice::Lattice& pulldown,
                                       const lattice::Lattice& pullup,
                                       const logic::TruthTable& f,
                                       const MeasureOptions& options) {
  return measure_gate(
      [&](const std::map<int, spice::Waveform>& drives) {
        return build_complementary_lattice_circuit(pulldown, pullup, drives,
                                                   options.circuit);
      },
      f, pulldown.cell_count() + pullup.cell_count(), options);
}

}  // namespace ftl::bridge
