#include "ftl/lattice/known_mappings.hpp"

#include "ftl/lattice/function.hpp"
#include "ftl/util/error.hpp"

namespace ftl::lattice {
namespace {

constexpr int kA = 0;
constexpr int kB = 1;
constexpr int kC = 2;

Lattice build(int rows, int cols, const std::vector<CellValue>& cells) {
  Lattice lat(rows, cols, 3, {"a", "b", "c"});
  FTL_EXPECTS(static_cast<int>(cells.size()) == rows * cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      lat.set(r, c, cells[static_cast<std::size_t>(r * cols + c)]);
    }
  }
  return lat;
}

}  // namespace

logic::TruthTable xor3_truth_table() {
  return logic::TruthTable::from_function(3, [](std::uint64_t m) {
    return (((m >> 0) ^ (m >> 1) ^ (m >> 2)) & 1) != 0;
  });
}

Lattice xor3_lattice_3x3() {
  const auto a = [](bool pos) { return CellValue::of(kA, pos); };
  const auto b = [](bool pos) { return CellValue::of(kB, pos); };
  const auto c = [](bool pos) { return CellValue::of(kC, pos); };
  // The constant-1 cell is necessary: no literal-only 3×3 lattice realizes
  // XOR3 (the test suite's complete search proves it), which mirrors the
  // constant visible in the paper's Fig. 3. Re-verified against
  // xor3_truth_table() in the test suite.
  return build(3, 3,
               {
                   a(true), b(false), a(false),        // row 0
                   c(true), CellValue::one(), c(false), // row 1
                   a(false), b(true), a(true),         // row 2
               });
}

Lattice xor3_lattice_3x4() {
  const auto a = [](bool pos) { return CellValue::of(kA, pos); };
  const auto b = [](bool pos) { return CellValue::of(kB, pos); };
  const auto c = [](bool pos) { return CellValue::of(kC, pos); };
  // Verified against xor3_truth_table() in the test suite.
  return build(3, 4,
               {
                   c(true), b(true), a(false), c(false),
                   a(false), CellValue::one(), a(true), b(false),
                   c(false), b(false), c(true), a(true),
               });
}

}  // namespace ftl::lattice
