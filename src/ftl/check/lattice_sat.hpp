#pragma once
// SAT-backed lattice audits (FTL-L006/L007/L008): the certified siblings of
// check_lattice's semantic passes, built on the embedded CDCL solver instead
// of truth-table re-realization, so they keep working past the ~12-variable
// wall where re-realizing one sub-lattice per row/column stops being viable.
//
// Every pass is an UNSAT argument over the EXACT connectivity encodings
// (sat::encode_reach_exact / encode_connected_exact — iff-defined, so both
// SAT and UNSAT answers are meaningful), and every finding is justified by
// an UNSAT core mapped back to lattice cells: each cell's semantics enters
// the formula behind its own assumption literal ("guard"), the solver's
// failed-assumption set selects the guards that actually participated in
// the contradiction, and a greedy deletion pass shrinks that set further.
// The finding message names those cells — a minimal explanation a reviewer
// can audit by hand instead of a bare verdict.
//
//   FTL-L007  warning  switch can never conduct: no input assignment puts
//                      the cell on a conducting top-bottom path. Stronger
//                      than FTL-L001 (structural blockage by constant-0
//                      cells), which is skipped here to avoid duplicates —
//                      L007 catches cells whose neighborhood demands x and
//                      ¬x conduct at once.
//   FTL-L006  note     row/column removable: an exact-connectivity XOR
//                      miter between the lattice and the lattice with the
//                      row/column deleted is UNSAT, so no assignment
//                      distinguishes them. The certified analogue of
//                      FTL-L004.
//   FTL-L008  note     a strictly smaller lattice realizes the same
//                      function, found by lattice::synth_sat on the
//                      (rows-1)×cols and rows×(cols-1) shapes.
//
// With `certify`, each solver logs an LRAT proof into its own incremental
// checker, which verifies every lemma once as it arrives; every UNSAT
// verdict the audit consumes (the core minimization re-solves included)
// then costs one final hinted step, not a replay of the solver's earlier
// queries. A rejected proof downgrades nothing silently — it surfaces as
// FTL-E003 on the same object.

#include <cstdint>

#include "ftl/check/diagnostics.hpp"
#include "ftl/lattice/lattice.hpp"

namespace ftl::check {

struct LatticeSatAuditOptions {
  /// Log LRAT proofs and certify every UNSAT verdict with the embedded
  /// checker; failures surface as FTL-E003 (see LatticeSatAudit counters).
  bool certify = false;
  /// Conflict budget per individual SAT query (L006/L007 and their core
  /// minimization solves). A query that exhausts it is dropped without a
  /// finding — the audit never reports anything it did not prove.
  std::int64_t max_conflicts = 200'000;
  /// Run the FTL-L008 smaller-lattice search (two synth_sat calls on the
  /// realized function). The one pass that still needs a truth table, hence
  /// its own variable cap below.
  bool suboptimal = true;
  int suboptimal_max_vars = 16;  ///< skip L008 above this variable count
  std::int64_t suboptimal_conflicts = 100'000;  ///< synth_sat budget (L008)
};

struct LatticeSatAudit {
  Report report;
  int queries = 0;          ///< top-level audit queries solved
  int unsat_verdicts = 0;   ///< UNSAT answers consumed (incl. minimization)
  int certified_unsat = 0;  ///< ... whose proof passed the checker
  int proof_failures = 0;   ///< ... whose proof was rejected
  double proof_check_ms = 0.0;  ///< total embedded-checker wall-clock
};

/// Runs the SAT-backed audits on one lattice. Degenerate inputs (no rows or
/// columns, zero variables, or out-of-range cell literals — FTL-L003
/// territory) return an empty audit; run check_lattice first for those.
LatticeSatAudit audit_lattice_sat(const lattice::Lattice& lat,
                                  const LatticeSatAuditOptions& options = {});

}  // namespace ftl::check
