#include "ftl/library/precompute.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <numeric>
#include <unordered_set>

#include "ftl/lattice/function.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/library/npn.hpp"
#include "ftl/util/error.hpp"
#include "ftl/util/thread_pool.hpp"

namespace ftl::library {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// CEGAR-SAT minimization for one phase slot: the smallest lattice with
/// fewer cells than the incumbent, if the shape ladder finds one.
void minimize_slot(LatticeLibrary& lib, std::uint64_t key,
                   const logic::TruthTable& canonical, bool phase,
                   const logic::TruthTable& want,
                   const PrecomputeOptions& options,
                   std::atomic<std::size_t>& improved) {
  const std::optional<LibraryEntry> current = lib.find(key, phase);
  if (!current) return;
  lattice::SatSynthesisOptions sat;
  sat.seed = options.seed;
  sat.max_conflicts = options.sat_conflicts_per_shape;
  const auto start = std::chrono::steady_clock::now();
  const lattice::SmallestLatticeResult result = lattice::smallest_lattice(
      want, std::min(options.sat_max_cells, current->lattice.cell_count() - 1),
      sat);
  if (!result.lattice) return;
  LibraryEntry entry;
  entry.lattice = *result.lattice;
  entry.engine = "sat";
  entry.seed = options.seed;
  entry.cost_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  if (lib.insert(key, canonical, phase, std::move(entry))) {
    improved.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

std::vector<logic::TruthTable> npn_class_representatives(int num_vars) {
  FTL_EXPECTS(num_vars >= 0 && num_vars <= 4);
  const int minterms = 1 << num_vars;
  const std::uint64_t mask_all = (std::uint64_t{1} << minterms) - 1;

  // Minterm maps of every (perm, input-negation) pair of the group.
  std::vector<std::array<std::uint8_t, 16>> maps;
  std::array<int, 4> p{};
  std::iota(p.begin(), p.begin() + num_vars, 0);
  do {
    for (std::uint32_t mask = 0; mask < (1u << num_vars); ++mask) {
      std::array<std::uint8_t, 16> map{};
      for (int x = 0; x < minterms; ++x) {
        int y = 0;
        for (int j = 0; j < num_vars; ++j) {
          y |= static_cast<int>(
                   ((static_cast<std::uint32_t>(x) >>
                     p[static_cast<std::size_t>(j)]) ^
                    (mask >> j)) &
                   1u)
               << j;
        }
        map[static_cast<std::size_t>(x)] = static_cast<std::uint8_t>(y);
      }
      maps.push_back(map);
    }
  } while (std::next_permutation(p.begin(), p.begin() + num_vars));

  // Orbit sweep in ascending table order: the first unseen table is its
  // orbit's minimum (anything smaller would already have marked it), so it
  // is the canonical representative; mark the whole orbit and move on.
  const std::uint64_t tables = std::uint64_t{1} << minterms;
  std::vector<bool> seen(tables, false);
  std::vector<logic::TruthTable> reps;
  for (std::uint64_t w = 0; w < tables; ++w) {
    if (seen[w]) continue;
    reps.push_back(logic::TruthTable::from_bits(num_vars, w));
    for (const auto& map : maps) {
      std::uint64_t r = 0;
      for (int x = 0; x < minterms; ++x) {
        r |= ((w >> map[static_cast<std::size_t>(x)]) & 1)
             << x;
      }
      seen[r] = true;
      seen[r ^ mask_all] = true;
    }
  }
  return reps;
}

std::vector<logic::TruthTable> curated_targets(std::uint64_t seed,
                                               int randoms_per_size) {
  using logic::TruthTable;
  const auto ones = [](std::uint64_t m) { return std::popcount(m); };
  std::vector<TruthTable> raw;

  // 5 variables: parity, majority, threshold, product-of-pairs structures.
  raw.push_back(TruthTable::from_function(
      5, [&](std::uint64_t m) { return (ones(m) & 1) != 0; }));
  raw.push_back(
      TruthTable::from_function(5, [&](std::uint64_t m) { return ones(m) >= 3; }));
  raw.push_back(
      TruthTable::from_function(5, [&](std::uint64_t m) { return ones(m) >= 2; }));
  raw.push_back(TruthTable::from_function(5, [](std::uint64_t m) {
    return ((m & 3) == 3) || ((m >> 2 & 3) == 3) || ((m >> 4 & 1) != 0);
  }));
  raw.push_back(TruthTable::from_function(5, [](std::uint64_t m) {
    return ((m & 3) == 3) || ((m >> 2 & 7) == 7);
  }));

  // 6 variables: parity, majority, threshold, 4:1 multiplexer
  // (x4, x5 select among x0..x3), sum of pairwise products.
  raw.push_back(TruthTable::from_function(
      6, [&](std::uint64_t m) { return (ones(m) & 1) != 0; }));
  raw.push_back(
      TruthTable::from_function(6, [&](std::uint64_t m) { return ones(m) >= 4; }));
  raw.push_back(
      TruthTable::from_function(6, [&](std::uint64_t m) { return ones(m) >= 3; }));
  raw.push_back(TruthTable::from_function(6, [](std::uint64_t m) {
    const std::uint64_t sel = (m >> 4) & 3;
    return ((m >> sel) & 1) != 0;
  }));
  raw.push_back(TruthTable::from_function(6, [](std::uint64_t m) {
    return ((m & 3) == 3) || ((m >> 2 & 3) == 3) || ((m >> 4 & 3) == 3);
  }));

  std::uint64_t state = seed;
  for (const int num_vars : {5, 6}) {
    const std::uint64_t mask_all =
        num_vars == 6 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << (1 << num_vars)) - 1;
    for (int i = 0; i < randoms_per_size; ++i) {
      std::uint64_t w = splitmix64(state) & mask_all;
      if (w == 0 || w == mask_all) w = 0x96u;  // arbitrary non-constant
      raw.push_back(TruthTable::from_bits(num_vars, w));
    }
  }

  std::vector<logic::TruthTable> out;
  std::unordered_set<std::uint64_t> keys;
  for (const TruthTable& t : raw) {
    const logic::TruthTable canonical = canonicalize(t).canonical;
    if (keys.insert(npn_key(canonical)).second) out.push_back(canonical);
  }
  return out;
}

PrecomputeReport precompute(LatticeLibrary& lib,
                            const PrecomputeOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<logic::TruthTable> classes;
  if (options.classes4) {
    for (int n = 0; n <= 4; ++n) {
      const std::vector<logic::TruthTable> reps = npn_class_representatives(n);
      classes.insert(classes.end(), reps.begin(), reps.end());
    }
  }
  if (options.curated) {
    const std::vector<logic::TruthTable> extra = curated_targets(options.seed);
    classes.insert(classes.end(), extra.begin(), extra.end());
  }

  std::atomic<std::size_t> populated{0};
  std::atomic<std::size_t> improved{0};
  std::atomic<std::size_t> failures{0};
  util::parallel_for(
      classes.size(),
      [&](std::size_t i) {
        const logic::TruthTable& canonical = classes[i];
        const std::uint64_t key = npn_key(canonical);
        // Both phases are filled explicitly: relying on which output phase
        // canonicalize() happens to pick would leave the other slot cold
        // for self-complementary classes.
        for (const bool phase : {false, true}) {
          const logic::TruthTable want = phase ? ~canonical : canonical;
          if (!lib.find(key, phase)) {
            const auto t0 = std::chrono::steady_clock::now();
            lattice::Lattice lat = lattice::altun_riedel_synthesis(want);
            if (!lattice::realizes(lat, want)) {
              failures.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            LibraryEntry entry;
            entry.lattice = std::move(lat);
            entry.engine = "altun";
            entry.seed = 0;
            entry.cost_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
            if (lib.insert(key, canonical, phase, std::move(entry))) {
              populated.fetch_add(1, std::memory_order_relaxed);
            }
          }
          if (options.effort == PrecomputeOptions::Effort::kSat) {
            minimize_slot(lib, key, canonical, phase, want, options, improved);
          }
        }
      },
      options.max_threads);

  PrecomputeReport report;
  report.targets = classes.size() * 2;
  report.populated = populated.load();
  report.improved = improved.load();
  report.failures = failures.load();
  report.total_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return report;
}

}  // namespace ftl::library
