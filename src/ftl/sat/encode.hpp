#pragma once
// CNF encodings of four-terminal lattice path-connectivity, and the selector
// encoding of the lattice-realization search (§II of the paper, attacked as
// SAT per ROADMAP and arXiv:2202.09551).
//
// This layer is deliberately abstract — cells are indices, conductivity is a
// literal per cell — so ftl_sat stays free of lattice types (ftl_lattice
// links ftl_sat for synth_sat, not the other way around). The CEGAR driver
// that owns Lattice/TruthTable lives in lattice/sat_synthesis.cpp.
//
// Cell i = r * cols + c (row-major). "Connected" means a 4-neighbor path of
// conducting cells from some top-row cell to some bottom-row cell — the same
// relation lattice/connectivity.hpp computes by BFS and lattice/bitslice.hpp
// by bit-parallel fixpoint; tests check all three agree.

#include <cstdint>
#include <vector>

#include "ftl/sat/solver.hpp"

namespace ftl::sat {

/// Asserts that a top-to-bottom path of conducting cells EXISTS.
/// `on[i]` is the literal "cell i conducts". Encoded through the grid
/// crossing duality: an ON top-bottom 4-connected path exists iff the OFF
/// cells have no left-right 8-connected crossing, and the absence of that
/// crossing is a cheap single-layer forced-closure encoding (one auxiliary
/// variable per cell). Sound and complete; ~9 short clauses per cell.
void encode_path_exists(Solver& solver, int rows, int cols,
                        const std::vector<Lit>& on);

/// Exact layered reachability: returns one literal per cell (row-major)
/// that is true IFF the cell conducts and a 4-connected path of conducting
/// cells links it to the seed boundary (top row when `from_top`, bottom row
/// otherwise). Unlike the forced-closure encodings above — whose auxiliary
/// flags may be over-set in satisfying models — every returned literal is
/// functionally determined by the `on` assignment (iff-defined BFS layers,
/// unrolled to the grid diameter), so both SAT and UNSAT answers of queries
/// over these literals are meaningful. Costs ~2·cells² auxiliary variables;
/// meant for audits on one lattice, not inner synthesis loops.
std::vector<Lit> encode_reach_exact(Solver& solver, int rows, int cols,
                                    const std::vector<Lit>& on, bool from_top);

/// Exact top-to-bottom connectivity: a literal true IFF some conducting
/// path links the top row to the bottom row (iff-defined via
/// encode_reach_exact). Suitable for miter constructions.
Lit encode_connected_exact(Solver& solver, int rows, int cols,
                           const std::vector<Lit>& on);

/// Asserts that NO top-to-bottom path of conducting cells exists.
/// Single-layer forced-closure encoding: clauses force a cell's
/// reachability flag true whenever it conducts and a 4-neighbor (or the top
/// boundary) reaches it, and unit clauses pin the bottom row's flags false.
/// A real path forces a conflict by unit propagation alone; when no path
/// exists, the exact reachable set satisfies every clause.
void encode_path_absent(Solver& solver, int rows, int cols,
                        const std::vector<Lit>& on);

/// Selector encoding of "choose each cell's value so the lattice realizes
/// the target on a set of care minterms".
///
/// Choice indices mirror lattice::search_candidate_values: choice 2v =
/// variable v positive literal, 2v+1 = variable v negative literal, then
/// (with constants) index 2*num_vars = constant-1 and 2*num_vars+1 =
/// constant-0. Keeping the two orderings identical is what lets decoded
/// models feed materialization directly.
class LatticeSynthesisCnf {
 public:
  /// Creates one selector variable per (cell, choice) with exactly-one
  /// constraints per cell. Requires rows, cols >= 1 and num_vars >= 1.
  LatticeSynthesisCnf(Solver& solver, int rows, int cols, int num_vars,
                      bool allow_constants);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int num_vars() const { return num_vars_; }
  int num_choices() const { return num_choices_; }

  /// The selector literal "cell picks this choice".
  Lit sel(int cell, int choice) const;

  /// Value of a choice under a variable assignment (bit v of `assignment`
  /// is variable v), matching CellValue::evaluate for the mirrored index.
  static bool choice_on(int choice, int num_vars, std::uint64_t assignment);

  /// Constrains the lattice to output `target_value` on `assignment`:
  /// fresh on-literals are defined from the selectors under this minterm
  /// and fed to encode_path_exists / encode_path_absent.
  void add_care_minterm(std::uint64_t assignment, bool target_value);

  /// Lex-leader symmetry breaking over the lattice's reflection
  /// automorphisms (row flip, column flip). Top-bottom
  /// connectivity is invariant under both reflections for every cell
  /// assignment, so each symmetry maps solutions to solutions for any
  /// target and constraining the selector vector to be lexicographically
  /// <= each reflected image keeps at least one representative per orbit.
  /// Call once, before or between solve()s; composes with CEGAR refinement
  /// because later care-minterm clauses are themselves symmetric.
  void add_symmetry_breaking();

  /// Reads the chosen candidate index per cell (row-major) out of the
  /// solver's model after solve() returned kTrue.
  std::vector<int> decode() const;

 private:
  Solver& solver_;
  int rows_;
  int cols_;
  int num_vars_;
  int num_choices_;
  std::vector<Var> sel_base_;  ///< per-cell first selector variable
};

}  // namespace ftl::sat
