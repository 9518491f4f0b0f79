#include "ftl/check/equivalence.hpp"

#include <string>
#include <vector>

#include "ftl/lattice/function.hpp"
#include "ftl/lattice/paths.hpp"
#include "ftl/logic/bdd.hpp"
#include "ftl/logic/isop.hpp"
#include "ftl/sat/encode.hpp"
#include "ftl/sat/proof.hpp"
#include "ftl/sat/solver.hpp"
#include "ftl/util/error.hpp"

namespace ftl::check {
namespace {

using lattice::CellValue;
using lattice::Lattice;
using logic::BddManager;
using logic::BddRef;

/// BDD of the lattice function: OR over irredundant top-bottom paths of the
/// AND of the path's cell values. Falls back to the semantic truth table
/// when the path count exceeds the cap.
BddRef lattice_bdd(BddManager& mgr, const Lattice& lat,
                   const EquivalenceOptions& options) {
  // Shapes beyond the path enumerator's 128-cell contract (e.g. the
  // Altun–Riedel lattices of dense functions) go straight to the semantic
  // fallback instead of tripping a ContractViolation; within it,
  // count_products is a cheap DP, so the product-count cap costs nothing.
  if (lat.rows() * lat.cols() > 128 ||
      lattice::count_products(lat.rows(), lat.cols()) > options.max_products) {
    return mgr.from_truth_table(lattice::realized_truth_table(lat));
  }
  // Per-cell value BDDs (row-major), so path products reuse them.
  std::vector<BddRef> cell(static_cast<std::size_t>(lat.cell_count()),
                           mgr.zero());
  for (int r = 0; r < lat.rows(); ++r) {
    for (int c = 0; c < lat.cols(); ++c) {
      const CellValue& value = lat.at(r, c);
      BddRef ref = mgr.zero();
      switch (value.kind) {
        case CellValue::Kind::kConst0: ref = mgr.zero(); break;
        case CellValue::Kind::kConst1: ref = mgr.one(); break;
        case CellValue::Kind::kLiteral:
          ref = mgr.variable(value.literal.var);
          if (!value.literal.positive) ref = mgr.lnot(ref);
          break;
      }
      cell[static_cast<std::size_t>(r) * lat.cols() + c] = ref;
    }
  }
  BddRef f = mgr.zero();
  lattice::enumerate_products(
      lat.rows(), lat.cols(), [&](const std::vector<int>& path) {
        BddRef product = mgr.one();
        for (const int i : path) {
          product = mgr.land(product, cell[static_cast<std::size_t>(i)]);
          if (mgr.is_zero(product)) return;  // const-0 cell kills the path
        }
        f = mgr.lor(f, product);
      });
  return f;
}

/// A satisfying minterm of a non-zero BDD, by cofactor descent in variable
/// order: try var=0 first, take var=1 (and set the bit) when the 0-branch
/// is empty.
std::uint64_t any_minterm(BddManager& mgr, BddRef f) {
  std::uint64_t minterm = 0;
  for (int v = 0; v < mgr.num_vars(); ++v) {
    const BddRef low = mgr.cofactor(f, v, false);
    if (mgr.is_zero(low)) {
      minterm |= std::uint64_t{1} << v;
      f = mgr.cofactor(f, v, true);
    } else {
      f = low;
    }
  }
  return minterm;
}

std::string var_name(const Lattice& lat, int v) {
  if (v < static_cast<int>(lat.var_names().size())) {
    return lat.var_names()[static_cast<std::size_t>(v)];
  }
  std::string out = "x";
  out += std::to_string(v);
  return out;
}

std::string assignment_string(const Lattice& lat, std::uint64_t minterm) {
  std::string out;
  for (int v = 0; v < lat.num_vars(); ++v) {
    if (!out.empty()) out += ' ';
    out += var_name(lat, v);
    out += '=';
    out += (minterm >> v) & 1 ? '1' : '0';
  }
  return out;
}

/// The lattice's conductivity literals over the shared input variables
/// x_0..x_{nv-1} (solver variables 0..nv-1, created by the caller):
/// literal cells map to the matching input literal, constants to the pinned
/// true literal or its negation.
std::vector<sat::Lit> cell_on_literals(sat::Solver& solver,
                                       const Lattice& lat) {
  std::vector<sat::Lit> on;
  on.reserve(static_cast<std::size_t>(lat.cell_count()));
  for (int r = 0; r < lat.rows(); ++r) {
    for (int c = 0; c < lat.cols(); ++c) {
      const CellValue& value = lat.at(r, c);
      switch (value.kind) {
        case CellValue::Kind::kConst0:
          on.push_back(~solver.true_lit());
          break;
        case CellValue::Kind::kConst1:
          on.push_back(solver.true_lit());
          break;
        case CellValue::Kind::kLiteral:
          on.push_back(
              sat::Lit::of(value.literal.var, value.literal.positive));
          break;
      }
    }
  }
  return on;
}

/// Tseitin witness that `cover` (an ISOP of the function being asserted)
/// evaluates to 1 at the input assignment: one aux variable per cube,
/// implications aux -> cube literals, and a clause demanding some aux.
void assert_cover_holds(sat::Solver& solver, const logic::Sop& cover) {
  std::vector<sat::Lit> some_cube;
  for (const logic::Cube& cube : cover.cubes()) {
    const sat::Lit aux = sat::Lit::of(solver.new_var());
    for (const logic::Literal& literal : cube.literals()) {
      solver.add_clause({~aux, sat::Lit::of(literal.var, literal.positive)});
    }
    some_cube.push_back(aux);
  }
  solver.add_clause(std::move(some_cube));
}

/// Reads the input-variable assignment out of a satisfying model.
std::uint64_t model_minterm(const sat::Solver& solver, int num_vars) {
  std::uint64_t minterm = 0;
  for (int v = 0; v < num_vars; ++v) {
    if (solver.model_value(static_cast<sat::Var>(v)) == sat::LBool::kTrue) {
      minterm |= std::uint64_t{1} << v;
    }
  }
  return minterm;
}

}  // namespace

EquivalenceVerdict verify_equivalence_sat(const Lattice& lat,
                                         const logic::TruthTable& target,
                                         bool certify) {
  FTL_EXPECTS(lat.num_vars() == target.num_vars());
  const int nv = lat.num_vars();
  sat::SolverOptions solver_options;
  solver_options.certify = certify;
  EquivalenceVerdict verdict;
  bool proofs_ok = true;
  // Certification outcome of one UNSAT query: the solver auto-checked its
  // proof; a missing or rejected check poisons the `certified` bit.
  const auto note_unsat = [&](const sat::Solver& solver) {
    if (!certify) return;
    const sat::ProofCheckResult* check = solver.last_proof_check();
    if (check == nullptr || !check->valid) {
      proofs_ok = false;
    } else {
      verdict.proof_check_ms += check->check_ms;
    }
  };
  if (nv == 0) {
    const bool got = lat.evaluate(0);
    if (got == target.get(0)) {
      verdict.realizes = true;
      verdict.certified = certify;  // no solver involved: vacuously checked
    } else {
      verdict.counterexample = 0;
      verdict.lattice_value = got;
    }
    return verdict;
  }

  // Query A: lattice connected while the target is 0.
  if (!target.is_one()) {
    sat::Solver solver(solver_options);
    for (int v = 0; v < nv; ++v) solver.new_var();
    sat::encode_path_exists(solver, lat.rows(), lat.cols(),
                            cell_on_literals(solver, lat));
    assert_cover_holds(solver, logic::isop(~target));
    if (solver.solve() == sat::LBool::kTrue) {
      verdict.counterexample = model_minterm(solver, nv);
      verdict.lattice_value = true;
      return verdict;
    }
    note_unsat(solver);
  }

  // Query B: lattice disconnected while the target is 1.
  if (!target.is_zero()) {
    sat::Solver solver(solver_options);
    for (int v = 0; v < nv; ++v) solver.new_var();
    sat::encode_path_absent(solver, lat.rows(), lat.cols(),
                            cell_on_literals(solver, lat));
    assert_cover_holds(solver, logic::isop(target));
    if (solver.solve() == sat::LBool::kTrue) {
      verdict.counterexample = model_minterm(solver, nv);
      verdict.lattice_value = false;
      return verdict;
    }
    note_unsat(solver);
  }

  verdict.realizes = true;
  verdict.certified = certify && proofs_ok;
  return verdict;
}

EquivalenceVerdict verify_equivalence(const Lattice& lat,
                                      const logic::TruthTable& target,
                                      const EquivalenceOptions& options) {
  if (options.certify || options.backend == EquivalenceOptions::Backend::kSat ||
      (options.backend == EquivalenceOptions::Backend::kAuto &&
       lat.num_vars() > options.sat_fallback_vars)) {
    return verify_equivalence_sat(lat, target, options.certify);
  }
  BddManager mgr(lat.num_vars());
  const BddRef f = lattice_bdd(mgr, lat, options);
  const BddRef g = mgr.from_truth_table(target);
  const BddRef diff = mgr.lxor(f, g);
  EquivalenceVerdict verdict;
  if (mgr.is_zero(diff)) {
    verdict.realizes = true;
    return verdict;
  }
  const std::uint64_t minterm = any_minterm(mgr, diff);
  verdict.counterexample = minterm;
  verdict.lattice_value = mgr.evaluate(f, minterm);
  return verdict;
}

Report check_equivalence(const Lattice& lat, const logic::TruthTable& target,
                         const EquivalenceOptions& options) {
  Report report;
  if (target.num_vars() != lat.num_vars()) {
    report.add("FTL-E002", Severity::kError, "lattice",
               "lattice has " + std::to_string(lat.num_vars()) +
                   " variables but the target function has " +
                   std::to_string(target.num_vars()));
    return report;
  }
  const EquivalenceVerdict verdict = verify_equivalence(lat, target, options);
  if (verdict.realizes) {
    if (options.certify && !verdict.certified) {
      report.add("FTL-E003", Severity::kError, "lattice",
                 "equivalence holds but its UNSAT proof failed the embedded "
                 "LRAT checker; the verdict is unverified");
    }
    return report;
  }
  const std::uint64_t minterm = *verdict.counterexample;
  report.add("FTL-E001", Severity::kError, "lattice",
             "lattice does not realize the target function: at " +
                 assignment_string(lat, minterm) + " the lattice outputs " +
                 (verdict.lattice_value ? "1" : "0") + " but the target is " +
                 (verdict.lattice_value ? "0" : "1"));
  return report;
}

}  // namespace ftl::check
