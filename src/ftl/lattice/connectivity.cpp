#include "ftl/lattice/connectivity.hpp"

#include <map>
#include <memory>
#include <mutex>

#include "ftl/util/error.hpp"

namespace ftl::lattice {

EvalCore& eval_core() {
  static EvalCore counters;
  return counters;
}

namespace {

/// Shared BFS over a generic "is cell ON" predicate.
template <typename StateFn>
bool connected_impl(StateFn on, int rows, int cols) {
  const int n = rows * cols;
  std::vector<int> stack;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  stack.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < cols; ++c) {
    if (on(c)) {
      seen[static_cast<std::size_t>(c)] = true;
      stack.push_back(c);
    }
  }
  while (!stack.empty()) {
    const int cell = stack.back();
    stack.pop_back();
    const int r = cell / cols;
    if (r == rows - 1) return true;
    const int c = cell % cols;
    const int nbrs[4] = {
        r > 0 ? cell - cols : -1,
        cell + cols,  // r+1 always < rows here because r != rows-1 was handled
        c > 0 ? cell - 1 : -1,
        c + 1 < cols ? cell + 1 : -1,
    };
    for (int nb : nbrs) {
      if (nb < 0 || nb >= n) continue;
      if (seen[static_cast<std::size_t>(nb)] || !on(nb)) continue;
      seen[static_cast<std::size_t>(nb)] = true;
      stack.push_back(nb);
    }
  }
  return false;
}

}  // namespace

bool top_bottom_connected(const std::vector<bool>& states, int rows, int cols) {
  FTL_EXPECTS(rows >= 1 && cols >= 1);
  FTL_EXPECTS(states.size() == static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
  return connected_impl([&states](int i) { return states[static_cast<std::size_t>(i)]; },
                        rows, cols);
}

bool top_bottom_connected_bits(std::uint64_t pattern, int rows, int cols) {
  FTL_EXPECTS(rows >= 1 && cols >= 1 && rows * cols <= 64);
  return connected_impl([pattern](int i) { return ((pattern >> i) & 1) != 0; },
                        rows, cols);
}

std::vector<bool> connectivity_lut(int rows, int cols) {
  FTL_EXPECTS(rows >= 1 && cols >= 1 && rows * cols <= 20);
  const std::uint64_t count = std::uint64_t{1} << (rows * cols);
  std::vector<bool> lut(static_cast<std::size_t>(count));
  for (std::uint64_t p = 0; p < count; ++p) {
    lut[static_cast<std::size_t>(p)] = top_bottom_connected_bits(p, rows, cols);
  }
  return lut;
}

const std::vector<bool>& connectivity_lut_cached(int rows, int cols) {
  FTL_EXPECTS(rows >= 1 && cols >= 1 && rows * cols <= 20);
  // unique_ptr values keep the table address stable across rehashes and map
  // growth, so returned references survive later insertions.
  static std::mutex mutex;
  static std::map<std::pair<int, int>, std::unique_ptr<const std::vector<bool>>>
      cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = cache[{rows, cols}];
  const bool hit = slot != nullptr;
  if (!hit) {
    slot = std::make_unique<const std::vector<bool>>(
        connectivity_lut(rows, cols));
  }
  (hit ? eval_core().lut_hits : eval_core().lut_builds).add();
  return *slot;
}

}  // namespace ftl::lattice
