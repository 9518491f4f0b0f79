#pragma once
// Top-plate to bottom-plate connectivity over a grid of switch states — the
// semantic core of the four-terminal switching model. A lattice evaluates to
// 1 exactly when the ON switches form a connected path from any top-row cell
// to any bottom-row cell (4-neighbour adjacency).

#include <cstdint>
#include <vector>

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
/// (bitsliced blocks, cached-LUT lookups). Monotonic; surfaced by the serve
/// `stats` op so throughput regressions are observable in production.
struct EvalCounters {
  std::uint64_t assignments = 0;  ///< input assignments evaluated (64/block)
  std::uint64_t blocks = 0;       ///< 64-wide bitsliced blocks propagated
  std::uint64_t lut_hits = 0;     ///< connectivity_lut_cached served from memo
  std::uint64_t lut_builds = 0;   ///< connectivity_lut_cached tables built
};

/// Snapshot of the process-wide counters (relaxed atomics: values are
/// individually exact but not mutually synchronized).
EvalCounters eval_counters();

/// Resets all counters to zero (test support).
void reset_eval_counters();

namespace detail {
/// Accounting hooks for the kernels (relaxed atomic increments).
void count_block();
void count_lut(bool hit);
}  // namespace detail

}  // namespace ftl::lattice
