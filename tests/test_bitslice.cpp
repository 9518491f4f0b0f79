// The bitsliced evaluation core: 64-lane connectivity against the scalar
// BFS and the memoized-LUT engine, block-parallel truth tables against
// serial ones (bitwise), and the process-wide evaluation counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "ftl/lattice/bitslice.hpp"
#include "ftl/lattice/connectivity.hpp"
#include "ftl/lattice/function.hpp"
#include "ftl/lattice/lattice.hpp"
#include "ftl/logic/truth_table.hpp"
#include "ftl/util/error.hpp"

namespace {

using ftl::lattice::BitsliceEvaluator;
using ftl::lattice::CellValue;
using ftl::lattice::cell_lane_word;
using ftl::lattice::connected_lanes;
using ftl::lattice::connectivity_lut_cached;
using ftl::lattice::eval_core;
using ftl::lattice::Lattice;
using ftl::lattice::realized_truth_table;
using ftl::lattice::realized_truth_table_lut;
using ftl::lattice::realizes;
using ftl::logic::TruthTable;

Lattice random_lattice(int rows, int cols, int num_vars, unsigned seed,
                       bool with_constants = true) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> choice(
      0, 2 * num_vars + (with_constants ? 1 : -1));
  Lattice lat(rows, cols, num_vars);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int pick = choice(rng);
      if (pick < 2 * num_vars) {
        lat.set(r, c, CellValue::of(pick / 2, pick % 2 == 0));
      } else if (pick == 2 * num_vars) {
        lat.set(r, c, CellValue::zero());
      } else {
        lat.set(r, c, CellValue::one());
      }
    }
  }
  return lat;
}

/// The scalar ground truth: one BFS per assignment.
TruthTable scalar_truth_table(const Lattice& lat) {
  return TruthTable::from_function(
      lat.num_vars(), [&lat](std::uint64_t m) { return lat.evaluate(m); });
}

// --- lane-word construction ------------------------------------------------

TEST(Bitslice, LaneWordsMatchScalarCellEvaluation) {
  for (const std::uint64_t base : {std::uint64_t{0}, std::uint64_t{64},
                                   std::uint64_t{1} << 10}) {
    for (int var = 0; var < 12; ++var) {
      for (const bool positive : {true, false}) {
        const CellValue v = CellValue::of(var, positive);
        const std::uint64_t lanes = cell_lane_word(v, base);
        for (int k = 0; k < 64; ++k) {
          EXPECT_EQ(((lanes >> k) & 1) != 0, v.evaluate(base + k))
              << "var=" << var << " positive=" << positive << " base=" << base
              << " lane=" << k;
        }
      }
    }
    EXPECT_EQ(cell_lane_word(CellValue::zero(), base), 0u);
    EXPECT_EQ(cell_lane_word(CellValue::one(), base), ~std::uint64_t{0});
  }
}

// --- kernel vs scalar BFS --------------------------------------------------

TEST(Bitslice, ConnectedLanesAgreeWithScalarBfsOnRandomStates) {
  std::mt19937_64 rng(7);
  for (const auto& [rows, cols] :
       {std::pair{1, 1}, {1, 5}, {5, 1}, {2, 2}, {3, 4}, {4, 3}, {5, 5},
        {2, 9}, {9, 2}, {6, 4}}) {
    const int n = rows * cols;
    std::vector<std::uint64_t> states(static_cast<std::size_t>(n));
    for (int trial = 0; trial < 8; ++trial) {
      for (auto& w : states) w = rng();
      const std::uint64_t out = connected_lanes(states.data(), rows, cols);
      for (int lane = 0; lane < 64; ++lane) {
        std::vector<bool> grid(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
          grid[static_cast<std::size_t>(i)] =
              ((states[static_cast<std::size_t>(i)] >> lane) & 1) != 0;
        }
        EXPECT_EQ(((out >> lane) & 1) != 0,
                  ftl::lattice::top_bottom_connected(grid, rows, cols))
            << rows << "x" << cols << " lane " << lane;
      }
    }
  }
}

TEST(Bitslice, AbortMaskOnlyEverAddsMaskedBits) {
  // With an abort mask the kernel may stop early, but any lane it reports
  // as connected really is (monotone growth), and it must report at least
  // one masked lane when the exact result intersects the mask.
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> states(12);
  for (int trial = 0; trial < 64; ++trial) {
    for (auto& w : states) w = rng();
    const std::uint64_t exact = connected_lanes(states.data(), 3, 4);
    const std::uint64_t mask = rng();
    std::vector<std::uint64_t> scratch;
    const std::uint64_t partial =
        connected_lanes(states.data(), 3, 4, mask, scratch);
    EXPECT_EQ(partial & ~exact, 0u);  // never over-reports
    if ((exact & mask) != 0) {
      EXPECT_NE(partial & mask, 0u);  // the refutation is visible
    } else {
      EXPECT_EQ(partial, exact);  // no abort: exact fixpoint
    }
  }
}

// --- three engines, one truth table ----------------------------------------

TEST(Bitslice, TruthTableAgreesWithScalarAndLutOnRandomLattices) {
  unsigned seed = 100;
  for (const auto& [rows, cols] :
       {std::pair{1, 1}, {1, 4}, {4, 1}, {2, 3}, {3, 3}, {4, 4}, {2, 8}}) {
    for (int num_vars : {1, 3, 5, 7}) {
      const Lattice lat = random_lattice(rows, cols, num_vars, ++seed);
      const TruthTable expected = scalar_truth_table(lat);
      EXPECT_EQ(realized_truth_table(lat), expected)
          << rows << "x" << cols << " nv=" << num_vars << " seed=" << seed;
      if (rows * cols <= 20) {
        EXPECT_EQ(realized_truth_table_lut(lat), expected)
            << rows << "x" << cols << " nv=" << num_vars << " seed=" << seed;
      }
      EXPECT_TRUE(realizes(lat, expected));
    }
  }
}

TEST(Bitslice, RealizesRejectsEveryScalarMismatch) {
  unsigned seed = 500;
  for (int trial = 0; trial < 10; ++trial) {
    const Lattice lat = random_lattice(3, 4, 6, ++seed);
    const TruthTable expected = scalar_truth_table(lat);
    EXPECT_TRUE(realizes(lat, expected));
    // Flipping any single minterm must be caught.
    std::mt19937 rng(seed);
    for (int flip = 0; flip < 4; ++flip) {
      TruthTable mutated = expected;
      const std::uint64_t m = rng() % mutated.num_minterms();
      mutated.set(m, !mutated.get(m));
      EXPECT_FALSE(realizes(lat, mutated)) << "flip at minterm " << m;
    }
  }
}

// --- deterministic parallelism ---------------------------------------------

TEST(Bitslice, ParallelTruthTablesAreBitwiseIdenticalToSerial) {
  // 10+ variables => 16+ blocks => the parallel path actually shards.
  unsigned seed = 900;
  for (const auto& [rows, cols] : {std::pair{3, 4}, {4, 4}, {5, 3}}) {
    const Lattice lat = random_lattice(rows, cols, 11, ++seed);
    const TruthTable serial = realized_truth_table(lat, 1);
    const TruthTable pooled = realized_truth_table(lat);  // global pool
    const TruthTable capped = realized_truth_table(lat, 4);
    EXPECT_EQ(serial, pooled);
    EXPECT_EQ(serial, capped);
    EXPECT_EQ(serial, scalar_truth_table(lat));
  }
}

// --- the memoized LUT and the counters -------------------------------------

TEST(Bitslice, CachedLutMatchesDirectBuildAndCountsHits) {
  const std::uint64_t hits = eval_core().lut_hits.get();
  const std::vector<bool>& cached = connectivity_lut_cached(3, 3);
  const std::vector<bool>& again = connectivity_lut_cached(3, 3);
  EXPECT_EQ(&cached, &again);  // one table per shape, stable address
  EXPECT_EQ(cached, ftl::lattice::connectivity_lut(3, 3));
  // First call may build or hit (other tests share the process-wide cache);
  // the second call is necessarily a hit.
  EXPECT_GE(eval_core().lut_hits.get(), hits + 1);
  EXPECT_THROW(connectivity_lut_cached(5, 5), ftl::ContractViolation);
}

TEST(Bitslice, CountersAdvanceWithEvaluatedBlocks) {
  const std::uint64_t blocks = eval_core().blocks.get();
  const std::uint64_t assignments = eval_core().assignments.get();
  const Lattice lat = random_lattice(3, 3, 8, 4242);
  realized_truth_table(lat, 1);  // 2^8 assignments = 4 blocks
  EXPECT_GE(eval_core().blocks.get(), blocks + 4);
  EXPECT_GE(eval_core().assignments.get(), assignments + 256);
}

TEST(Bitslice, EvaluatorBlockMatchesTruthTableWords) {
  const Lattice lat = random_lattice(4, 3, 8, 77);
  const BitsliceEvaluator eval(lat);
  const TruthTable table = realized_truth_table(lat);
  for (std::size_t b = 0; b < TruthTable::word_count(8); ++b) {
    EXPECT_EQ(eval.evaluate_block(b << 6), table.word(b)) << "block " << b;
  }
  EXPECT_THROW(eval.evaluate_block(17), ftl::ContractViolation);
}

}  // namespace
