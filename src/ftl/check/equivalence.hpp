#pragma once
// Formal equivalence of a lattice mapping against its target function
// (FTL-E001/E002), decided on ROBDDs rather than by exhaustive simulation.
//
// The lattice function is built as the OR over its irredundant top-bottom
// path products (§II), each product the AND of the path's cell values; when
// the path count is too large to enumerate, the builder falls back to the
// semantic truth table. Non-equivalence comes with a concrete
// counterexample minterm extracted by cofactor descent on f XOR target.

#include <cstdint>
#include <optional>

#include "ftl/check/diagnostics.hpp"
#include "ftl/lattice/lattice.hpp"
#include "ftl/logic/truth_table.hpp"

namespace ftl::check {

struct EquivalenceOptions {
  /// Path-product cap for the symbolic BDD construction; lattices with more
  /// irredundant paths use the truth-table fallback.
  std::uint64_t max_products = 50000;

  /// Decision procedure. kBdd is the historical XOR-of-BDDs check; kSat is
  /// a miter on the embedded CDCL solver (two path-connectivity existence
  /// queries, no BDD ever built); kAuto picks SAT once the variable count
  /// passes sat_fallback_vars, where BDD construction cost turns steep.
  enum class Backend { kAuto, kBdd, kSat };
  Backend backend = Backend::kAuto;
  int sat_fallback_vars = 20;  ///< kAuto switches to SAT above this

  /// Certify: force the SAT backend, log LRAT proofs, and certify each
  /// UNSAT miter query with the solver's embedded checker, so an
  /// "equivalent" verdict is machine-checked instead of trusted from the
  /// CDCL core. The verdict's `certified` bit reports the checker outcome;
  /// check_equivalence turns a failed check into FTL-E003.
  bool certify = false;
};

struct EquivalenceVerdict {
  bool realizes = false;
  /// Set when !realizes: an input assignment (bit v = variable v) on which
  /// the lattice and the target disagree.
  std::optional<std::uint64_t> counterexample;
  bool lattice_value = false;  ///< lattice output at the counterexample

  /// With EquivalenceOptions::certify and realizes: true when every UNSAT
  /// miter query's LRAT proof passed the embedded checker.
  bool certified = false;
  double proof_check_ms = 0.0;  ///< total checker wall-clock
};

/// Decides whether `lat` realizes exactly `target`. Requires matching
/// variable counts (check_equivalence reports the mismatch as FTL-E002).
/// Dispatches to the BDD or SAT backend per EquivalenceOptions::backend.
EquivalenceVerdict verify_equivalence(const lattice::Lattice& lat,
                                      const logic::TruthTable& target,
                                      const EquivalenceOptions& options = {});

/// SAT-miter backend: two CDCL existence queries — "some assignment
/// connects the lattice while the target is 0" (path-exists encoding plus a
/// Tseitin witness of an ISOP cube of ¬target) and "some assignment leaves
/// it disconnected while the target is 1". Both UNSAT proves equivalence;
/// either model is a genuine counterexample minterm read off the input
/// variables. Never builds a BDD, so it scales past BDD-friendly sizes.
/// With `certify`, each query logs an LRAT proof and each UNSAT answer is
/// validated by the embedded checker (see EquivalenceVerdict::certified).
EquivalenceVerdict verify_equivalence_sat(const lattice::Lattice& lat,
                                          const logic::TruthTable& target,
                                          bool certify = false);

/// Report wrapper: FTL-E002 on variable-count mismatch, FTL-E001 with the
/// counterexample assignment spelled out (variable names when the lattice
/// has them) on non-equivalence. An equivalent mapping yields an empty
/// report.
Report check_equivalence(const lattice::Lattice& lat,
                         const logic::TruthTable& target,
                         const EquivalenceOptions& options = {});

}  // namespace ftl::check
