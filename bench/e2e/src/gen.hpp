#pragma once
// Seeded request generators for the three serve workloads. Every request
// carries what its oracle needs (the lattice it names, or the target
// function it asks for) in the generator's own terms, so the checks never
// take the server's word for what was asked.
//
// Lines are unique within a run: each generator draws until a line's hash
// is new to the shared Seen set. A repeated line would be a cache hit, and
// a cold workload would silently turn warm.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common.hpp"

namespace bench_e2e {

enum class Op : std::uint8_t {
  kEvalCells,  ///< eval of an explicit lattice
  kEvalExpr,   ///< eval of the Altun-Riedel lattice of an expression
  kSynth,
  kSynthSat,
  kLint,
  kMetrics,
  kSweep,
  kExplore,
  kPaths,
};

const char* op_name(Op op);

/// A function of up to 8 variables as a bit vector: bit m is f(m), where
/// bit v of m is the value of variable v (the serve protocol's order).
using Truth = std::array<std::uint64_t, 4>;

/// One product term: bit v of `pos` / `neg` = literal v / v'.
struct Cube {
  std::uint8_t pos = 0;
  std::uint8_t neg = 0;
};

struct Request {
  Op op = Op::kEvalCells;
  std::string line;
  std::int8_t rows = 0;
  std::int8_t cols = 0;
  std::int8_t num_vars = 0;
  bool certify = false;
  std::int16_t paths_limit = 0;      ///< kPaths: "list_limit" (0 = absent)
  std::vector<std::int8_t> cells;    ///< explicit lattices, see cell_code
  std::vector<Cube> cubes;           ///< target SOP (kSynth, kEvalExpr, ...)
  Truth truth{};                     ///< target function when `cubes` is set
};

/// Cell encoding of Request::cells: 0 = constant 0, 1 = constant 1,
/// 2 + 2v = variable v, 3 + 2v = its complement.
inline int cell_code(int var, bool negated) { return 2 + 2 * var + (negated ? 1 : 0); }

/// Hashes of the lines generated so far in one run.
using Seen = std::unordered_set<std::uint64_t>;

bool truth_get(const Truth& t, std::uint64_t m);
std::uint64_t truth_ones(const Truth& t, int num_vars);

/// serve_synth: ~45% eval of random 4x4..8x8 lattices over 8 variables,
/// 22% synth of random 3-cube 5-variable SOPs, 22% synth_sat (half a
/// random 4-variable function on 4x4, half a 3-cube 5-variable SOP on 3x3;
/// max_conflicts 20000, half certified), 11% certified lint of random 3x3
/// 3-variable lattices.
std::vector<Request> synth_mix(Rng& rng, std::size_t count, Seen& seen);

/// serve_sim: 50% metrics of 3-variable functions (phase_ns = 40 + k*0.001,
/// unique k), 35% sweep_batch (16 trials, unique seed), 15% explore
/// (max_cells 6, unique seed). Each op deals its functions from its own
/// shuffled deck of all 254 non-constant ones. `counter` numbers k and the
/// seeds.
std::vector<Request> sim_mix(Rng& rng, std::size_t count, Seen& seen,
                             std::uint64_t& counter);

/// serve_warm's 256-line warm set: 64 each of eval-by-expression, synth of
/// 3-cube 5-variable SOPs (never balanced, so a class's output phase is
/// fixed by its ones count), paths, and eval of random 4x4..6x6 lattices.
std::vector<Request> warm_set(Rng& rng, Seen& seen);

/// Unique synth requests for functions NPN-equivalent (input permutation
/// and negation, no output negation) to the warm set's synth targets, so
/// each one misses the response cache and hits the lattice library.
std::vector<Request> npn_twins(Rng& rng, const std::vector<Request>& warm,
                               std::size_t count, Seen& seen);

/// serve_warm's request stream: 60% verbatim repeats of a warm-set line,
/// 38% repeats carrying a unique "id", 2% the next unused NPN twin.
class WarmMix {
 public:
  enum class Kind : std::uint8_t { kRepeat, kWithId, kTwin };
  struct Pick {
    Kind kind = Kind::kRepeat;
    std::size_t index = 0;  ///< warm-set index, or twin index
    std::uint64_t id = 0;   ///< kWithId only
  };

  WarmMix(Rng rng, const std::vector<Request>& warm,
          const std::vector<Request>& twins);

  /// Draws the next request and appends its line to `out`. Returns false
  /// when the twins have run out.
  bool next(Pick& pick, std::string& out);

 private:
  Rng rng_;
  const std::vector<Request>& warm_;
  const std::vector<Request>& twins_;
  std::uint64_t last_id_ = 0;
  std::size_t next_twin_ = 0;
};

}  // namespace bench_e2e
