#pragma once
// Lookup-first lattice synthesis: canonicalize the target, consult the
// class library, and only fall back to a search engine on a miss — then
// populate the library with whatever the engine found, so the next request
// in the same NPN class is a relabeling instead of a search.
//
// Every library hit is un-applied (inverse transform rewrites the stored
// lattice's literals back into the request's variables) and bitslice-
// verified to realize the requested function before being returned; a
// verification failure demotes the hit to a miss instead of serving a
// wrong lattice.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ftl/lattice/synthesis.hpp"
#include "ftl/library/npn.hpp"
#include "ftl/library/store.hpp"
#include "ftl/logic/truth_table.hpp"

namespace ftl::library {

struct SynthesisRequest {
  enum class Engine {
    kAltun,  ///< library, then altun_riedel_synthesis (never fails)
    kSat,    ///< library (dims permitting), then CEGAR SAT
  };

  Engine engine = Engine::kAltun;

  /// Target dimensions. Required (> 0) for the fixed-shape SAT engine;
  /// optional for altun. When set, a library hit must fit inside rows×cols
  /// and is padded (constant-0 columns, then constant-1 rows —
  /// function-preserving) to exactly that shape, so callers see the
  /// dimensions they asked for.
  int rows = 0;
  int cols = 0;

  lattice::SatSynthesisOptions sat;  ///< SAT engine knobs

  bool use_library = true;  ///< consult the library before any engine
  bool populate = true;     ///< offer engine results back to the library

  std::vector<std::string> var_names;
};

struct SynthesisResult {
  lattice::Lattice lattice;  ///< valid iff `found`
  bool found = false;
  bool from_library = false;  ///< answered by relabeling a stored lattice
  /// What produced the lattice: "library", "altun" or "sat" (the engine
  /// that *ran* when not from the library).
  std::string engine;
  std::uint64_t npn_key = 0;  ///< class key (0 when the library was skipped)
  bool populated = false;     ///< engine result was kept by the library
  bool proven_infeasible = false;  ///< SAT engine only
  bool budget_exhausted = false;   ///< SAT engine only
  /// Full SAT engine report when Engine::kSat ran (solver counters etc).
  std::optional<lattice::SatSynthesisResult> sat;
};

/// Lookup-first synthesis. `lib` may be null (pure engine dispatch); the
/// library is only consulted for targets of <= 6 variables.
SynthesisResult synthesize(const logic::TruthTable& target,
                           const SynthesisRequest& request = {},
                           LatticeLibrary* lib = nullptr);

/// Library lookup with no engine fallback: returns the un-applied,
/// verified lattice for the target's class, or nullopt on a miss. With
/// rows/cols > 0 the stored lattice must fit and the result is padded to
/// exactly that shape.
std::optional<lattice::Lattice> lookup_only(
    LatticeLibrary& lib, const logic::TruthTable& target,
    std::vector<std::string> var_names = {}, int rows = 0, int cols = 0);

/// Embeds `lat` in the top-left of a rows×cols grid, filling new columns
/// (right) with constant-0 and new rows (bottom) with constant-1. This
/// preserves the realized function: when f = 0 the constant-1 rows are
/// unreachable from the top plate, and when f = 1 they extend the existing
/// path straight down to the new bottom plate. Requires
/// rows >= lat.rows() and cols >= lat.cols().
lattice::Lattice pad_lattice(const lattice::Lattice& lat, int rows, int cols);

}  // namespace ftl::library
