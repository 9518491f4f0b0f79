#pragma once
// Offline library construction: enumerate every NPN class worth storing and
// fill the library through the existing engines, in parallel.
//
// The 4-variable space is covered exhaustively — the 65,536 functions
// collapse into 222 NPN classes (the abc Npn4 count), and both output
// phases of each class get a lattice, so any permuted/negated 4-variable
// request afterwards is a pure library hit. 5-6 variables are covered by a
// curated set (paper functions, symmetric benchmarks, seeded randoms)
// rather than enumeration (>200k classes at 6 vars).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ftl/library/store.hpp"
#include "ftl/logic/truth_table.hpp"

namespace ftl::library {

/// Canonical representatives of all NPN classes of exactly `num_vars`
/// variables (num_vars <= 4), ascending by table word. Computed by orbit
/// sweep: walk the 2^2^n tables once, and for each unseen table mark its
/// whole 768-transform orbit seen — about 222 * 768 word transforms for
/// n = 4, well under a millisecond. For n = 4 the result has 222 entries.
std::vector<logic::TruthTable> npn_class_representatives(int num_vars);

/// Curated 5-6 variable targets: parity, majority, multiplexer, threshold
/// and product/sum structures from the lattice-synthesis literature, plus
/// `randoms_per_size` seeded random tables per variable count. Returned as
/// canonical representatives, deduplicated by class.
std::vector<logic::TruthTable> curated_targets(std::uint64_t seed,
                                               int randoms_per_size = 8);

struct PrecomputeOptions {
  enum class Effort {
    kBaseline,  ///< altun_riedel per phase: fast, always succeeds
    kSat,       ///< baseline + lattice::smallest_lattice per slot
  };

  Effort effort = Effort::kBaseline;
  bool classes4 = true;       ///< enumerate all 4-var classes (and smaller)
  bool curated = true;        ///< include the curated 5-6 variable set
  std::uint64_t seed = 1;     ///< drives curated randoms and SAT decisions
  std::size_t max_threads = 0;  ///< parallel_for cap (0 = global pool)
  /// SAT-effort knobs: per-shape conflict budget and the largest cell count
  /// the minimization ladder (lattice::smallest_lattice) will attempt.
  std::int64_t sat_conflicts_per_shape = 200'000;
  int sat_max_cells = 9;
};

struct PrecomputeReport {
  std::size_t targets = 0;    ///< distinct (class, phase) slots attempted
  std::size_t populated = 0;  ///< slots filled that were empty before
  std::size_t improved = 0;   ///< slots replaced with a smaller lattice
  std::size_t failures = 0;   ///< slots no engine could fill (SAT budget)
  double total_ms = 0;        ///< wall-clock of the whole run
};

/// Fills `lib` per the options. Idempotent: re-running against a populated
/// library only replaces entries when it finds strictly smaller lattices.
PrecomputeReport precompute(LatticeLibrary& lib,
                            const PrecomputeOptions& options = {});

}  // namespace ftl::library
