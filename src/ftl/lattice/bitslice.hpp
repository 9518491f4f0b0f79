#pragma once
// Bitsliced (word-parallel) lattice evaluation: 64 input assignments at a
// time. Each cell's ON/OFF state across a block of 64 consecutive
// assignments is one 64-bit lane word (bit k = state under assignment
// base + k), and top-plate reachability is propagated over the whole block
// with AND/OR fixpoint sweeps instead of one BFS per assignment. A block's
// output word drops directly into a logic::TruthTable word — the layouts
// are identical by construction.

#include <cstdint>
#include <vector>

#include "ftl/lattice/lattice.hpp"

namespace ftl::lattice {

/// Word-parallel top-bottom connectivity over explicit lane words. Bit k of
/// `states[i]` is cell i's ON/OFF state in lane k (row-major cells). Returns
/// the output lanes: bit k set when the ON cells of lane k connect the top
/// row to the bottom row.
///
/// Reachability R starts as the ON states of the top row and grows
/// monotonically under R_i = S_i & (R_i | OR of 4-neighbour R) until a
/// fixpoint; alternating forward/backward sweeps keep the iteration count
/// proportional to the number of direction reversals of the longest path,
/// not the cell count.
///
/// `abort_zero_mask` lets a candidate screen stop at the first mismatch:
/// lanes the caller knows must evaluate to 0. Because R only grows, a bottom
/// output bit, once set, stays set — so as soon as any masked lane lights
/// up the candidate is refuted and the fixpoint returns early (the partial
/// result still has the offending bit set). Pass 0 for an exact result;
/// every evaluator in the library does, and the only nonzero caller is the
/// test suite's odometer oracle (tests/odometer_oracle.hpp).
///
/// `scratch` is reused storage for the reachability words (resized as
/// needed); hot callers keep one buffer per thread to avoid reallocation.
std::uint64_t connected_lanes(const std::uint64_t* states, int rows, int cols,
                              std::uint64_t abort_zero_mask,
                              std::vector<std::uint64_t>& scratch);

/// Convenience overload with private scratch and no abort mask.
std::uint64_t connected_lanes(const std::uint64_t* states, int rows, int cols);

/// Evaluates a fixed lattice on 64-assignment blocks. The constructor
/// flattens the cell values once; evaluate_block() then builds the per-cell
/// lane words for a block and runs connected_lanes. Stateless per call and
/// therefore safe to share across threads.
class BitsliceEvaluator {
 public:
  explicit BitsliceEvaluator(const Lattice& lattice);

  /// Output lanes for assignments base .. base+63 (bit k = f(base + k)).
  /// `base` must be a multiple of 64. For lattices with fewer than 6
  /// variables the lanes beyond 2^num_vars are evaluated under don't-care
  /// high bits; callers mask them off (TruthTable::from_words does).
  std::uint64_t evaluate_block(std::uint64_t base,
                               std::vector<std::uint64_t>& states_scratch,
                               std::vector<std::uint64_t>& fix_scratch) const;

  /// Convenience overload with private scratch buffers.
  std::uint64_t evaluate_block(std::uint64_t base) const;

  int rows() const { return rows_; }
  int cols() const { return cols_; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<CellValue> cells_;  // row-major
};

/// Lane word of one cell value for the 64 assignments base .. base+63.
/// Variables 0..5 select within the block (periodic masks); variables >= 6
/// are constant across it (decided by the matching bit of `base`).
std::uint64_t cell_lane_word(const CellValue& value, std::uint64_t base);

}  // namespace ftl::lattice
