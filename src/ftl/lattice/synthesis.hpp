#pragma once
// Lattice synthesis: mapping a target Boolean function onto the control
// inputs of an m×n switching lattice (§II, Fig. 3).
//
// Two engines and the ladder over them:
//  - altun_riedel_synthesis: the dual-based construction of [Altun & Riedel,
//    IEEE TC 2012] (ref [9] of the paper). Produces a |ISOP(f^D)| ×
//    |ISOP(f)| lattice; fast, never fails, rarely minimal.
//  - synth_sat: CDCL + CEGAR (lattice/sat_synthesis.cpp) on one fixed
//    rows×cols shape. Finds a realization or proves none exists (with a
//    LRAT-checked proof under certify), within a conflict budget.
//  - smallest_lattice: synth_sat on every shape in ascending cell count —
//    the exact minimum-size question behind the paper's "3×3 is the
//    minimum size for XOR3".

#include <cstdint>
#include <optional>
#include <vector>

#include "ftl/lattice/lattice.hpp"
#include "ftl/logic/bdd.hpp"
#include "ftl/logic/truth_table.hpp"
#include "ftl/sat/solver.hpp"

namespace ftl::lattice {

/// Dual-based synthesis; the returned lattice always realizes `target`.
/// Variable names are attached to the lattice when provided.
Lattice altun_riedel_synthesis(const logic::TruthTable& target,
                               std::vector<std::string> var_names = {});

/// BDD-backed variant of the same construction, for functions beyond the
/// 26-variable truth-table ceiling (cells can carry up to 64 variables).
/// The result is verified against `target` exhaustively up to 20 variables
/// and by dense random sampling above that.
Lattice altun_riedel_synthesis(logic::BddManager& manager,
                               logic::BddRef target,
                               std::vector<std::string> var_names = {});

/// Candidate cell values in a fixed order: for each variable v its positive
/// then negative literal (indices 2v, 2v+1), then constant-1 and constant-0
/// when allowed. sat::LatticeSynthesisCnf mirrors these indices, which is
/// what lets a decoded SAT model feed straight into a Lattice.
std::vector<CellValue> search_candidate_values(int num_vars,
                                               bool allow_constants);

struct SatSynthesisOptions {
  bool allow_constants = true;  ///< permit constant-0/1 cells
  /// Decision seed for the CDCL variable order; echoed in the result.
  std::uint64_t seed = 1;
  /// Total CDCL conflict budget across all CEGAR rounds (-1 = unlimited).
  /// When it runs out the result reports budget_exhausted instead of an
  /// answer — synth_sat never silently grinds.
  std::int64_t max_conflicts = 2'000'000;
  /// Cap on CEGAR refinement rounds (0 = unlimited; the loop is bounded by
  /// 2^num_vars regardless, since every round adds a fresh care minterm).
  int max_rounds = 0;
  /// Counterexample minterms added per refinement round. More per round
  /// means fewer rounds but larger formulas; 4 is a good middle.
  int counterexamples_per_round = 4;
  /// Lex-leader symmetry breaking over the lattice's row/column reflection
  /// automorphisms, inside the CNF (see
  /// LatticeSynthesisCnf::add_symmetry_breaking). Sound for any target —
  /// reflections preserve the realized function — and on by default.
  bool symmetry_break = true;
  /// Log an LRAT proof, checked lemma by lemma by the solver's embedded
  /// checker, and certify any infeasibility verdict with it; the outcome
  /// lands in proof_checked / proof_valid.
  bool certify = false;
};

struct SatSynthesisResult {
  /// The synthesized lattice; engaged iff the search succeeded, and always
  /// bitslice-verified to realize the target before being handed out.
  std::optional<Lattice> lattice;
  /// True when the SAT core proved no rows×cols lattice realizes the
  /// target (UNSAT of a relaxation is UNSAT of the full problem).
  bool proven_infeasible = false;
  /// True when the conflict or round budget ran out first (no verdict).
  bool budget_exhausted = false;
  int cegar_rounds = 0;    ///< refinement rounds executed
  int care_minterms = 0;   ///< minterms constrained when the loop stopped
  std::uint64_t seed = 1;  ///< decision seed used (from the options)
  sat::SolveStats solver;  ///< conflicts/decisions/propagations/restarts

  /// Certification of the infeasibility verdict (certify only): the final
  /// UNSAT's LRAT proof was run through the embedded checker, and whether
  /// it was accepted. A found lattice needs no proof — it is re-verified
  /// against the target by the bitslice kernel before being handed out.
  bool proof_checked = false;
  bool proof_valid = false;
  double proof_check_ms = 0.0;  ///< checker wall-clock over the run
};

/// CEGAR lattice synthesis on the embedded CDCL solver: encode realization
/// on a growing care set of minterms (sat::LatticeSynthesisCnf), verify
/// candidate models with the bitslice kernel, and feed mismatching minterms
/// back as refinement constraints until the kernel confirms
/// realizes(target), UNSAT proves infeasibility, or the budget runs out.
/// Deterministic for fixed (target, rows, cols, options).
///
/// Requires num_vars in [1, 26] and rows*cols <= 64.
SatSynthesisResult synth_sat(const logic::TruthTable& target, int rows,
                             int cols, const SatSynthesisOptions& options = {},
                             std::vector<std::string> var_names = {});

/// One rung of the smallest_lattice ladder: a shape and synth_sat's full
/// report on it.
struct ShapeAttempt {
  int rows = 0;
  int cols = 0;
  SatSynthesisResult sat;
};

struct SmallestLatticeResult {
  /// The first lattice synth_sat found along the ladder; nullopt when no
  /// shape of at most max_cells cells yielded one.
  std::optional<Lattice> lattice;
  /// True when every shape with fewer cells than `lattice` — or, when none
  /// was found, every shape up to max_cells — was proven infeasible, each
  /// by a checker-accepted proof when certify is set. A shape whose
  /// conflict budget ran out is skipped and leaves this false.
  bool proven_minimal = false;
  std::vector<ShapeAttempt> attempts;  ///< every shape tried, ladder order
};

/// Exact minimum-size synthesis: synth_sat on every rows×cols shape of
/// 1..max_cells cells, in ascending cell count and rows ascending within a
/// count, stopping at the first lattice found. Both orientations are tried
/// — top-bottom connectivity is not transpose-symmetric, so a 2×3 answer
/// says nothing about 3×2. `options` applies to every shape (its conflict
/// budget is per shape). Requires max_cells <= 64; max_cells <= 0 walks no
/// shape.
SmallestLatticeResult smallest_lattice(const logic::TruthTable& target,
                                       int max_cells,
                                       const SatSynthesisOptions& options = {},
                                       std::vector<std::string> var_names = {});

}  // namespace ftl::lattice
