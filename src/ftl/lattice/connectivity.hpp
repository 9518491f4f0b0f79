#pragma once
// Top-plate to bottom-plate connectivity over a grid of switch states — the
// semantic core of the four-terminal switching model. A lattice evaluates to
// 1 exactly when the ON switches form a connected path from any top-row cell
// to any bottom-row cell (4-neighbour adjacency).

#include <cstdint>
#include <vector>

#include "ftl/util/counters.hpp"

namespace ftl::lattice {

/// BFS connectivity query on an explicit state grid (row-major, rows*cols).
bool top_bottom_connected(const std::vector<bool>& states, int rows, int cols);

/// Connectivity where the states are packed into the low rows*cols bits of
/// `pattern` (row-major). Requires rows*cols <= 64.
bool top_bottom_connected_bits(std::uint64_t pattern, int rows, int cols);

/// Precomputed connectivity for every ON/OFF pattern of a small grid
/// (rows*cols <= 20). Index = packed row-major pattern. Backs
/// realized_truth_table_lut.
std::vector<bool> connectivity_lut(int rows, int cols);

/// Memoized connectivity_lut: one table per (rows, cols) shape, built on
/// first use under a mutex and shared for the process lifetime. Safe to call
/// concurrently; the returned reference is never invalidated. Serve and
/// designer workloads hit the same few shapes repeatedly, so the 2^cells
/// rebuild cost is paid once per shape instead of once per call.
const std::vector<bool>& connectivity_lut_cached(int rows, int cols);

/// Evaluation-core counters, accumulated process-wide across every engine
/// and reported by the serve `stats` op as `eval_core`.
struct EvalCore {
  util::CounterSet set{"eval_core"};
  util::Counter& assignments = set.declare("assignments");  ///< 64 per block
  util::Counter& blocks = set.declare("blocks");  ///< bitsliced blocks run
  util::Counter& lut_hits = set.declare("lut_hits");  ///< LUT memo hits
  util::Counter& lut_builds = set.declare("lut_builds");  ///< LUTs built
};

EvalCore& eval_core();

}  // namespace ftl::lattice
