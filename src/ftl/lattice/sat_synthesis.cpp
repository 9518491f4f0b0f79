// CEGAR lattice synthesis: the CDCL solver proposes cell assignments that
// realize the target on a small care set of minterms; the bitslice kernel
// (the fast, trusted evaluator) checks each proposal on ALL minterms and
// feeds back mismatches as new care constraints. The loop ends in one of
// three ways, all explicit in SatSynthesisResult:
//   - a candidate survives the full bitslice scan (verified realization;
//     FTL_ENSURES(realizes(...)) re-checks before handing it out),
//   - the solver reports UNSAT — since the care-set encoding is a
//     relaxation of full realization, UNSAT on any subset proves no
//     rows×cols lattice realizes the target at all,
//   - the conflict/round budget runs out (no verdict either way).
// Termination without a budget: every round adds at least one minterm the
// previous candidate got wrong, and there are only 2^num_vars of them.
//
// smallest_lattice walks synth_sat up the shapes in ascending cell count;
// the first shape that yields a lattice answers the minimum-size question,
// and the UNSAT verdicts below it are the proof.

#include <bit>
#include <utility>

#include "ftl/lattice/bitslice.hpp"
#include "ftl/lattice/function.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/sat/encode.hpp"
#include "ftl/sat/proof.hpp"
#include "ftl/util/error.hpp"

namespace ftl::lattice {
namespace {

/// All (rows, cols) shapes with exactly `cells` cells, rows ascending.
std::vector<std::pair<int, int>> shapes_with_cells(int cells) {
  std::vector<std::pair<int, int>> out;
  for (int rows = 1; rows <= cells; ++rows) {
    if (cells % rows == 0) out.emplace_back(rows, cells / rows);
  }
  return out;
}

}  // namespace

SatSynthesisResult synth_sat(const logic::TruthTable& target, int rows,
                             int cols, const SatSynthesisOptions& options,
                             std::vector<std::string> var_names) {
  FTL_EXPECTS(rows >= 1 && cols >= 1 && rows * cols <= 64);
  FTL_EXPECTS(target.num_vars() >= 1);
  FTL_EXPECTS(options.counterexamples_per_round >= 1);
  const int nv = target.num_vars();

  SatSynthesisResult result;
  result.seed = options.seed;

  sat::SolverOptions solver_options;
  solver_options.seed = options.seed;
  solver_options.certify = options.certify;
  sat::Solver solver(solver_options);
  sat::LatticeSynthesisCnf cnf(solver, rows, cols, nv,
                               options.allow_constants);
  if (options.symmetry_break) cnf.add_symmetry_breaking();
  const std::vector<CellValue> choices =
      search_candidate_values(nv, options.allow_constants);

  const std::size_t words = logic::TruthTable::word_count(nv);
  const std::uint64_t last_word_mask =
      nv >= 6 ? ~std::uint64_t{0}
              : (std::uint64_t{1} << target.num_minterms()) - 1;

  std::vector<std::uint64_t> states_scratch, fix_scratch;
  for (;;) {
    if (options.max_rounds > 0 && result.cegar_rounds >= options.max_rounds) {
      result.budget_exhausted = true;
      break;
    }
    if (options.max_conflicts >= 0) {
      const std::int64_t remaining =
          options.max_conflicts -
          static_cast<std::int64_t>(solver.stats().conflicts);
      if (remaining <= 0) {
        result.budget_exhausted = true;
        break;
      }
      solver.set_max_conflicts(remaining);
    }

    const sat::LBool verdict = solver.solve();
    ++result.cegar_rounds;
    sat::sat_core().cegar_rounds.add();
    if (verdict == sat::LBool::kFalse) {
      result.proven_infeasible = true;
      // The solver certified its LRAT proof on the UNSAT exit (certify);
      // surface the outcome so callers can distinguish "proved infeasible"
      // from "proved infeasible, and the proof was machine-checked".
      if (options.certify) {
        const sat::ProofCheckResult* check = solver.last_proof_check();
        result.proof_checked = check != nullptr;
        result.proof_valid = check != nullptr && check->valid;
        if (check != nullptr) result.proof_check_ms = check->check_ms;
      }
      break;
    }
    if (verdict == sat::LBool::kUndef) {
      result.budget_exhausted = true;
      break;
    }

    // Materialize the model and scan it against the target, 64 assignments
    // per fixpoint, collecting the first few mismatching minterms.
    Lattice candidate(rows, cols, nv, var_names);
    const std::vector<int> pick = cnf.decode();
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        candidate.set(
            r, c,
            choices[static_cast<std::size_t>(
                pick[static_cast<std::size_t>(r * cols + c)])]);
      }
    }
    const BitsliceEvaluator evaluator(candidate);
    std::vector<std::uint64_t> counterexamples;
    for (std::size_t w = 0;
         w < words && counterexamples.size() <
                          static_cast<std::size_t>(
                              options.counterexamples_per_round);
         ++w) {
      const std::uint64_t got =
          evaluator.evaluate_block(64 * w, states_scratch, fix_scratch);
      std::uint64_t diff = (got ^ target.word(w)) & last_word_mask;
      while (diff != 0 &&
             counterexamples.size() <
                 static_cast<std::size_t>(options.counterexamples_per_round)) {
        const int k = std::countr_zero(diff);
        diff &= diff - 1;
        counterexamples.push_back(64 * w + static_cast<std::uint64_t>(k));
      }
    }
    if (counterexamples.empty()) {
      FTL_ENSURES(realizes(candidate, target));
      result.lattice = std::move(candidate);
      break;
    }
    for (const std::uint64_t m : counterexamples) {
      cnf.add_care_minterm(m, target.get(m));
      ++result.care_minterms;
    }
  }

  result.solver = solver.stats();
  return result;
}

SmallestLatticeResult smallest_lattice(const logic::TruthTable& target,
                                       int max_cells,
                                       const SatSynthesisOptions& options,
                                       std::vector<std::string> var_names) {
  FTL_EXPECTS(max_cells <= 64);
  SmallestLatticeResult result;
  // Minimality is about cell count, so a shape that stays open only spoils
  // the verdict for lattices of more cells than it has.
  bool fewer_cells_proven = true;
  for (int cells = 1; cells <= max_cells; ++cells) {
    bool count_proven = true;
    for (const auto& [rows, cols] : shapes_with_cells(cells)) {
      SatSynthesisResult sat =
          synth_sat(target, rows, cols, options, var_names);
      count_proven = count_proven && sat.proven_infeasible &&
                     (!options.certify || sat.proof_valid);
      const bool found = sat.lattice.has_value();
      if (found) result.lattice = sat.lattice;
      result.attempts.push_back({rows, cols, std::move(sat)});
      if (found) {
        result.proven_minimal = fewer_cells_proven;
        return result;
      }
    }
    fewer_cells_proven = fewer_cells_proven && count_proven;
  }
  result.proven_minimal = fewer_cells_proven;
  return result;
}

}  // namespace ftl::lattice
