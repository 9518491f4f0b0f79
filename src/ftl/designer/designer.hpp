#pragma once
// Automated design-space exploration for switching lattices — §VI-A's
// planned "automated design tool ... with given area, power, delay, and
// energy specifications, the tool would come up with optimized solutions".
//
// Given a target function, the explorer generates candidate implementations
// (the Altun-Riedel baseline, the smallest lattice the SAT shape ladder
// finds below it, and the complementary two-lattice topology),
// characterizes each with the gate-metrics engine, and scores them against
// user weights.

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ftl/bridge/metrics.hpp"
#include "ftl/lattice/lattice.hpp"
#include "ftl/logic/truth_table.hpp"

namespace ftl::designer {

/// One evaluated implementation.
struct CandidateDesign {
  std::string method;  ///< how the lattice(s) were obtained
  lattice::Lattice pulldown;
  std::optional<lattice::Lattice> pullup;  ///< set for complementary designs
  bridge::GateMetrics metrics;

  bool is_complementary() const { return pullup.has_value(); }
};

/// Relative importance of each figure of merit (0 disables a term). The
/// score of a candidate is the weighted sum of its metrics normalized by
/// the best value among all functional candidates; lower is better.
struct DesignWeights {
  double area = 1.0;
  double delay = 1.0;
  double static_power = 1.0;
  double energy = 1.0;
};

struct DesignOptions {
  bool try_smaller_lattices = true;   ///< hunt below the A-R baseline size
  bool include_complementary = true;  ///< add the §VI-A two-lattice design
  /// Largest cell count the search ladder tries (at most 64).
  int max_search_cells = 12;
  std::uint64_t search_seed = 1;  ///< SAT decision seed for the search
  bridge::MeasureOptions measure;
  /// External candidate source, called once with the target: each returned
  /// (method, lattice) pair joins the candidate set as a single-lattice
  /// design — this is how the serve layer feeds NPN-library hits into
  /// exploration without the designer depending on the library. Lattices
  /// that do not realize the target are dropped silently.
  std::function<std::vector<std::pair<std::string, lattice::Lattice>>(
      const logic::TruthTable&)>
      extra_candidates;
};

/// Generates and characterizes the candidate set. Throws ftl::Error for
/// constant functions (no circuit to build) or more than 6 variables.
std::vector<CandidateDesign> explore_designs(
    const logic::TruthTable& target, std::vector<std::string> var_names = {},
    const DesignOptions& options = {});

/// Index of the best functional candidate under `weights`; throws ftl::Error
/// when no candidate is functional.
std::size_t pick_best(const std::vector<CandidateDesign>& candidates,
                      const DesignWeights& weights = {});

/// Renders the candidate table (area / levels / power / delay / energy).
std::string render_report(const std::vector<CandidateDesign>& candidates);

}  // namespace ftl::designer
