#pragma once
// Test-only reference for lattice synthesis: a serial odometer over every
// cell assignment of a small rows×cols lattice. It shares nothing with the
// SAT engine but the candidate-value order and the bitsliced connectivity
// kernel (itself checked against scalar BFS in test_bitslice), so the tests
// use it to cross-check synth_sat and smallest_lattice verdicts.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "ftl/lattice/bitslice.hpp"
#include "ftl/lattice/function.hpp"
#include "ftl/lattice/lattice.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/logic/truth_table.hpp"
#include "ftl/util/error.hpp"

namespace ftl::oracle {

/// The first realization of `target` in odometer order (cell 0 is the
/// fastest digit), or nullopt when no rows×cols lattice realizes it. Visits
/// all (2*num_vars + 2)^(rows*cols) candidates in the worst case, hence
/// the contract: rows*cols <= 20 and at most 6 variables (one lane word).
inline std::optional<lattice::Lattice> odometer_synthesis(
    const logic::TruthTable& target, int rows, int cols,
    bool allow_constants = true) {
  FTL_EXPECTS(rows >= 1 && cols >= 1 && rows * cols <= 20);
  FTL_EXPECTS(target.num_vars() <= 6);
  const std::size_t cells = static_cast<std::size_t>(rows * cols);
  const std::vector<lattice::CellValue> choices =
      lattice::search_candidate_values(target.num_vars(), allow_constants);
  const std::uint64_t minterms = target.num_minterms();
  const std::uint64_t lane_mask =
      minterms >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << minterms) - 1;
  const std::uint64_t want = target.word(0) & lane_mask;

  // Lane word per choice: bit m is the cell's value under assignment m, so
  // one connectivity fixpoint scores every assignment of a candidate.
  std::vector<std::uint64_t> bits(choices.size(), 0);
  for (std::size_t i = 0; i < choices.size(); ++i) {
    for (std::uint64_t m = 0; m < minterms; ++m) {
      if (choices[i].evaluate(m)) bits[i] |= std::uint64_t{1} << m;
    }
  }

  std::vector<std::size_t> pick(cells, 0);
  std::vector<std::uint64_t> states(cells), scratch;
  for (;;) {
    for (std::size_t i = 0; i < cells; ++i) states[i] = bits[pick[i]];
    const std::uint64_t got = lattice::connected_lanes(
        states.data(), rows, cols, ~want & lane_mask, scratch);
    if ((got & lane_mask) == want) {
      lattice::Lattice lat(rows, cols, target.num_vars());
      for (std::size_t i = 0; i < cells; ++i) {
        lat.set(static_cast<int>(i) / cols, static_cast<int>(i) % cols,
                choices[pick[i]]);
      }
      // Cross-check the bitsliced verdict with the memoized-LUT engine.
      FTL_ENSURES(lattice::realized_truth_table_lut(lat) == target);
      return lat;
    }
    std::size_t digit = 0;
    while (digit < cells && ++pick[digit] == choices.size()) pick[digit++] = 0;
    if (digit == cells) return std::nullopt;
  }
}

/// The fewest cells of any lattice realizing `target`, searching every
/// shape of 1..max_cells cells with the odometer; 0 when none does.
inline int odometer_min_cells(const logic::TruthTable& target,
                              int max_cells) {
  for (int cells = 1; cells <= max_cells; ++cells) {
    for (int rows = 1; rows <= cells; ++rows) {
      if (cells % rows == 0 && odometer_synthesis(target, rows, cells / rows)) {
        return cells;
      }
    }
  }
  return 0;
}

}  // namespace ftl::oracle
