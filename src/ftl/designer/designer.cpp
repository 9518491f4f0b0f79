#include "ftl/designer/designer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ftl/lattice/function.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/util/error.hpp"
#include "ftl/util/table.hpp"
#include "ftl/util/units.hpp"

namespace ftl::designer {

std::vector<CandidateDesign> explore_designs(const logic::TruthTable& target,
                                             std::vector<std::string> var_names,
                                             const DesignOptions& options) {
  if (target.is_zero() || target.is_one()) {
    throw ftl::Error("explore_designs: constant functions need no lattice");
  }
  if (target.num_vars() > 6) {
    throw ftl::Error("explore_designs: at most 6 variables supported");
  }

  std::vector<CandidateDesign> candidates;
  const auto measure_resistor = [&](lattice::Lattice lat, std::string method) {
    CandidateDesign cand{std::move(method), std::move(lat), std::nullopt, {}};
    cand.metrics =
        bridge::measure_resistor_gate(cand.pulldown, target, options.measure);
    candidates.push_back(std::move(cand));
  };

  // 1. The Altun-Riedel baseline.
  const lattice::Lattice baseline =
      lattice::altun_riedel_synthesis(target, var_names);
  if (!var_names.empty()) var_names = baseline.var_names();
  measure_resistor(baseline, "altun-riedel");

  // 2. The smallest lattice below the baseline, by the SAT shape ladder.
  if (options.try_smaller_lattices) {
    lattice::SatSynthesisOptions sat;
    sat.seed = options.search_seed;
    const lattice::SmallestLatticeResult smaller = lattice::smallest_lattice(
        target, std::min(options.max_search_cells, baseline.cell_count() - 1),
        sat, baseline.var_names());
    if (smaller.lattice) {
      const lattice::Lattice& lat = *smaller.lattice;
      measure_resistor(lat, "search " + std::to_string(lat.rows()) + "x" +
                                std::to_string(lat.cols()));
    }
  }

  // 3. Externally supplied candidates (e.g. NPN-library hits relabeled to
  // this target). Verified before measuring: a hook bug must not leak a
  // non-realizing lattice into the scored set.
  if (options.extra_candidates) {
    for (auto& [method, lat] : options.extra_candidates(target)) {
      if (!lattice::realizes(lat, target)) continue;
      measure_resistor(std::move(lat), method);
    }
  }

  // 4. The complementary topology (§VI-A): pull-down realizes f, pull-up
  // realizes ¬f.
  if (options.include_complementary) {
    const lattice::Lattice pun =
        lattice::altun_riedel_synthesis(~target, baseline.var_names());
    CandidateDesign cand{"complementary", baseline, pun, {}};
    cand.metrics = bridge::measure_complementary_gate(baseline, pun, target,
                                                      options.measure);
    candidates.push_back(std::move(cand));
  }
  return candidates;
}

std::size_t pick_best(const std::vector<CandidateDesign>& candidates,
                      const DesignWeights& weights) {
  // Normalize each term by the best functional candidate's value.
  double best_area = std::numeric_limits<double>::max();
  double best_delay = best_area;
  double best_power = best_area;
  double best_energy = best_area;
  bool any = false;
  for (const CandidateDesign& c : candidates) {
    if (!c.metrics.functional) continue;
    any = true;
    best_area = std::min(best_area, static_cast<double>(c.metrics.switch_count));
    if (c.metrics.propagation_delay > 0.0) {
      best_delay = std::min(best_delay, c.metrics.propagation_delay);
    }
    if (c.metrics.static_power_mean > 0.0) {
      best_power = std::min(best_power, c.metrics.static_power_mean);
    }
    if (c.metrics.energy_per_transition > 0.0) {
      best_energy = std::min(best_energy, c.metrics.energy_per_transition);
    }
  }
  if (!any) throw ftl::Error("pick_best: no functional candidate");

  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const bridge::GateMetrics& m = candidates[i].metrics;
    if (!m.functional) continue;
    const auto norm = [](double value, double best_value) {
      return best_value > 0.0 && value > 0.0 ? value / best_value : 1.0;
    };
    const double score =
        weights.area * norm(m.switch_count, best_area) +
        weights.delay * norm(m.propagation_delay, best_delay) +
        weights.static_power * norm(m.static_power_mean, best_power) +
        weights.energy * norm(m.energy_per_transition, best_energy);
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

std::string render_report(const std::vector<CandidateDesign>& candidates) {
  util::ConsoleTable table({"method", "switches", "ok", "VOL/VOH [V]",
                            "P_static mean/worst", "tpd", "rise/fall",
                            "E/transition"});
  for (const CandidateDesign& c : candidates) {
    const bridge::GateMetrics& m = c.metrics;
    char levels[48];
    std::snprintf(levels, sizeof levels, "%.3f / %.3f", m.output_low_max,
                  m.output_high_min);
    table.add_row({
        c.method,
        std::to_string(m.switch_count),
        m.functional ? "yes" : "NO",
        levels,
        util::format_si(m.static_power_mean, 3, "W") + " / " +
            util::format_si(m.static_power_worst, 3, "W"),
        util::format_si(m.propagation_delay, 3, "s"),
        util::format_si(m.rise_time, 3, "s") + " / " +
            util::format_si(m.fall_time, 3, "s"),
        util::format_si(m.energy_per_transition, 3, "J"),
    });
  }
  return table.render();
}

}  // namespace ftl::designer
