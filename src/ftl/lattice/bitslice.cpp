#include "ftl/lattice/bitslice.hpp"

#include "ftl/lattice/connectivity.hpp"
#include "ftl/util/error.hpp"

namespace ftl::lattice {
namespace {

/// kVarLanes[v] has bit k set exactly when bit v of k is set: the lane word
/// of positive literal x_v within any 64-aligned block.
constexpr std::uint64_t kVarLanes[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};

}  // namespace

std::uint64_t cell_lane_word(const CellValue& value, std::uint64_t base) {
  switch (value.kind) {
    case CellValue::Kind::kConst0:
      return 0;
    case CellValue::Kind::kConst1:
      return ~std::uint64_t{0};
    case CellValue::Kind::kLiteral:
      break;
  }
  const int var = value.literal.var;
  std::uint64_t lanes;
  if (var < 6) {
    lanes = kVarLanes[var];
  } else {
    lanes = ((base >> var) & 1) != 0 ? ~std::uint64_t{0} : 0;
  }
  return value.literal.positive ? lanes : ~lanes;
}

std::uint64_t connected_lanes(const std::uint64_t* states, int rows, int cols,
                              std::uint64_t abort_zero_mask,
                              std::vector<std::uint64_t>& scratch) {
  FTL_EXPECTS(rows >= 1 && cols >= 1);
  EvalCore& counters = eval_core();
  counters.blocks.add();
  counters.assignments.add(64);

  const int n = rows * cols;
  scratch.assign(static_cast<std::size_t>(n), 0);
  std::uint64_t* reach = scratch.data();

  // Top-row cells that are ON touch the top plate by definition, and
  // R_i <= S_i everywhere, so row 0 is already at its fixpoint.
  for (int c = 0; c < cols; ++c) reach[c] = states[c];
  if (rows == 1) {
    std::uint64_t out = 0;
    for (int c = 0; c < cols; ++c) out |= reach[c];
    return out;
  }

  const int bottom = (rows - 1) * cols;
  bool changed = true;
  std::uint64_t out = 0;
  while (changed) {
    changed = false;
    // Forward sweep: carries reachability down and left-to-right in one
    // pass (Gauss–Seidel: updated neighbours are visible immediately).
    for (int i = cols; i < n; ++i) {
      const int c = i % cols;
      std::uint64_t acc = reach[i] | reach[i - cols];
      if (c > 0) acc |= reach[i - 1];
      if (c + 1 < cols) acc |= reach[i + 1];
      if (i + cols < n) acc |= reach[i + cols];
      acc &= states[i];
      if (acc != reach[i]) {
        reach[i] = acc;
        changed = true;
      }
    }
    out = 0;
    for (int c = 0; c < cols; ++c) out |= reach[bottom + c];
    if ((out & abort_zero_mask) != 0) return out;
    if (!changed) break;
    // Backward sweep: carries reachability up and right-to-left, so a
    // snaking path costs one forward+backward pair per direction reversal.
    changed = false;
    for (int i = n - 1; i >= cols; --i) {
      const int c = i % cols;
      std::uint64_t acc = reach[i] | reach[i - cols];
      if (c > 0) acc |= reach[i - 1];
      if (c + 1 < cols) acc |= reach[i + 1];
      if (i + cols < n) acc |= reach[i + cols];
      acc &= states[i];
      if (acc != reach[i]) {
        reach[i] = acc;
        changed = true;
      }
    }
    out = 0;
    for (int c = 0; c < cols; ++c) out |= reach[bottom + c];
    if ((out & abort_zero_mask) != 0) return out;
  }
  return out;
}

std::uint64_t connected_lanes(const std::uint64_t* states, int rows,
                              int cols) {
  std::vector<std::uint64_t> scratch;
  return connected_lanes(states, rows, cols, 0, scratch);
}

BitsliceEvaluator::BitsliceEvaluator(const Lattice& lattice)
    : rows_(lattice.rows()), cols_(lattice.cols()) {
  FTL_EXPECTS(rows_ >= 1 && cols_ >= 1);
  cells_.reserve(static_cast<std::size_t>(lattice.cell_count()));
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) cells_.push_back(lattice.at(r, c));
  }
}

std::uint64_t BitsliceEvaluator::evaluate_block(
    std::uint64_t base, std::vector<std::uint64_t>& states_scratch,
    std::vector<std::uint64_t>& fix_scratch) const {
  FTL_EXPECTS((base & 63) == 0);
  states_scratch.resize(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    states_scratch[i] = cell_lane_word(cells_[i], base);
  }
  return connected_lanes(states_scratch.data(), rows_, cols_, 0, fix_scratch);
}

std::uint64_t BitsliceEvaluator::evaluate_block(std::uint64_t base) const {
  std::vector<std::uint64_t> states_scratch;
  std::vector<std::uint64_t> fix_scratch;
  return evaluate_block(base, states_scratch, fix_scratch);
}

}  // namespace ftl::lattice
