// SAT-backed lattice audits. The shared trick across FTL-L006/L007: every
// cell's semantics (conductivity variable o_j tied to the cell's literal)
// enters the CNF behind its own guard literal g_j, with g_j → (o_j ↔ L_j).
// Queries assume all guards, so an UNSAT answer comes with a
// failed-assumption set whose guards are exactly the cells the refutation
// used — a per-cell UNSAT core the greedy deletion pass then shrinks. The
// connectivity side uses the EXACT (iff-defined) reachability encodings, so
// SAT answers ("the cell does conduct somewhere", "the row is not
// removable") are as trustworthy as the UNSAT ones.

#include "ftl/check/lattice_sat.hpp"

#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "ftl/lattice/function.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/sat/encode.hpp"
#include "ftl/sat/proof.hpp"
#include "ftl/sat/solver.hpp"

namespace ftl::check {
namespace {

using lattice::CellValue;
using lattice::Lattice;
using sat::LBool;
using sat::Lit;
using sat::Solver;

std::string cell_id(int row, int col) {
  std::string out = "(";
  out += std::to_string(row);
  out += ',';
  out += std::to_string(col);
  out += ')';
  return out;
}

/// BFS over non-const0 cells from the top or bottom boundary — the same
/// structural liveness FTL-L001 reports on, recomputed here so the L007
/// pass can skip cells that pass already flags.
std::vector<char> flood(const Lattice& lat, bool from_top) {
  const int rows = lat.rows();
  const int cols = lat.cols();
  std::vector<char> seen(static_cast<std::size_t>(rows) * cols, 0);
  std::queue<std::pair<int, int>> frontier;
  const int seed_row = from_top ? 0 : rows - 1;
  for (int c = 0; c < cols; ++c) {
    if (lat.at(seed_row, c).kind == CellValue::Kind::kConst0) continue;
    seen[static_cast<std::size_t>(seed_row) * cols + c] = 1;
    frontier.emplace(seed_row, c);
  }
  constexpr int kDr[] = {-1, 1, 0, 0};
  constexpr int kDc[] = {0, 0, -1, 1};
  while (!frontier.empty()) {
    const auto [r, c] = frontier.front();
    frontier.pop();
    for (int d = 0; d < 4; ++d) {
      const int nr = r + kDr[d];
      const int nc = c + kDc[d];
      if (nr < 0 || nr >= rows || nc < 0 || nc >= cols) continue;
      if (lat.at(nr, nc).kind == CellValue::Kind::kConst0) continue;
      char& mark = seen[static_cast<std::size_t>(nr) * cols + nc];
      if (mark) continue;
      mark = 1;
      frontier.emplace(nr, nc);
    }
  }
  return seen;
}

struct AuditCtx {
  const LatticeSatAuditOptions& options;
  LatticeSatAudit& audit;
};

sat::SolverOptions solver_options(const AuditCtx& ctx) {
  sat::SolverOptions out;
  out.certify = ctx.options.certify;
  out.max_conflicts = ctx.options.max_conflicts;
  return out;
}

struct GuardedCells {
  std::vector<Lit> on;      ///< o_j: per-cell conductivity variable
  std::vector<Lit> guards;  ///< g_j: assumption tying o_j to the cell value
};

/// Input variables must already occupy solver vars 0..num_vars-1. Creates a
/// fresh conductivity variable o and guard g per cell with g → (o ↔ L),
/// L being the cell's value over the inputs (constants via the pinned true
/// literal). Assuming every guard pins the o vector to the lattice's
/// semantics; dropping one frees that cell — which is what makes the failed
/// assumptions of an UNSAT answer a per-cell core.
GuardedCells encode_guarded_cells(Solver& solver, const Lattice& lat) {
  GuardedCells out;
  const std::size_t cells = static_cast<std::size_t>(lat.cell_count());
  out.on.reserve(cells);
  out.guards.reserve(cells);
  for (int r = 0; r < lat.rows(); ++r) {
    for (int c = 0; c < lat.cols(); ++c) {
      const CellValue& value = lat.at(r, c);
      Lit lit = solver.true_lit();
      switch (value.kind) {
        case CellValue::Kind::kConst0: lit = ~solver.true_lit(); break;
        case CellValue::Kind::kConst1: lit = solver.true_lit(); break;
        case CellValue::Kind::kLiteral:
          lit = Lit::of(value.literal.var, value.literal.positive);
          break;
      }
      const Lit on = Lit::of(solver.new_var());
      const Lit guard = Lit::of(solver.new_var());
      solver.add_clause({~guard, ~on, lit});
      solver.add_clause({~guard, on, ~lit});
      out.on.push_back(on);
      out.guards.push_back(guard);
    }
  }
  return out;
}

/// Consumes one kFalse verdict: bumps the UNSAT counters and, under
/// certify, folds in the solver's proof verdict. Returns false when
/// the proof was rejected — the caller reports one FTL-E003 per query.
bool consume_unsat(AuditCtx& ctx, const Solver& solver) {
  ++ctx.audit.unsat_verdicts;
  if (!ctx.options.certify) return true;
  const sat::ProofCheckResult* check = solver.last_proof_check();
  if (check == nullptr || !check->valid) {
    ++ctx.audit.proof_failures;
    return false;
  }
  ++ctx.audit.certified_unsat;
  ctx.audit.proof_check_ms += check->check_ms;
  return true;
}

/// Cell indices (into `guards`) whose guard's NEGATION appears in the
/// solver's failed-assumption set — the solver reports the negations of the
/// assumptions it refuted.
std::vector<int> guard_core(const Solver& solver,
                            const std::vector<Lit>& guards) {
  std::vector<int> core;
  const std::vector<Lit>& failed = solver.failed_assumptions();
  for (std::size_t j = 0; j < guards.size(); ++j) {
    for (const Lit p : failed) {
      if (p == ~guards[j]) {
        core.push_back(static_cast<int>(j));
        break;
      }
    }
  }
  return core;
}

/// Greedy deletion minimization: drop one core guard at a time and re-solve
/// under the rest (plus `base`); keep the drop when the query stays UNSAT,
/// also shrinking to the fresh failed-assumption core. kTrue restores the
/// guard; kUndef stops minimizing — the current core is still a valid
/// justification, just possibly not minimal.
std::vector<int> minimize_core(AuditCtx& ctx, Solver& solver,
                               const std::vector<Lit>& guards,
                               std::vector<int> core,
                               const std::vector<Lit>& base,
                               bool& proofs_ok) {
  std::size_t i = 0;
  while (i < core.size()) {
    std::vector<Lit> assume = base;
    for (std::size_t k = 0; k < core.size(); ++k) {
      if (k != i) assume.push_back(guards[static_cast<std::size_t>(core[k])]);
    }
    solver.set_max_conflicts(ctx.options.max_conflicts);
    const LBool verdict = solver.solve(assume);
    if (verdict == LBool::kUndef) break;
    if (verdict == LBool::kTrue) {
      ++i;  // this guard is necessary
      continue;
    }
    proofs_ok = consume_unsat(ctx, solver) && proofs_ok;
    const std::vector<Lit>& failed = solver.failed_assumptions();
    std::vector<int> next;
    for (std::size_t k = 0; k < core.size(); ++k) {
      if (k == i) continue;
      for (const Lit p : failed) {
        if (p == ~guards[static_cast<std::size_t>(core[k])]) {
          next.push_back(core[k]);
          break;
        }
      }
    }
    core = std::move(next);  // i now indexes the next untested guard
  }
  return core;
}

std::string core_cells(const std::vector<int>& core, int cols) {
  if (core.empty()) return "the connectivity encoding alone";
  std::string out = "cells ";
  constexpr std::size_t kMaxShown = 8;
  for (std::size_t k = 0; k < core.size(); ++k) {
    if (k == kMaxShown) {
      out += ", +" + std::to_string(core.size() - kMaxShown) + " more";
      break;
    }
    if (k != 0) out += ", ";
    out += cell_id(core[k] / cols, core[k] % cols);
  }
  return out;
}

/// FTL-L007: for each structurally-alive switch, is there ANY input
/// assignment under which a conducting top-to-bottom path runs through it?
/// One shared solver; per cell the query assumes every guard plus the
/// cell's exact top- and bottom-reachability literals. UNSAT means the cell
/// never carries current — e.g. its neighborhood demands x and ¬x conduct
/// at once, which no flood fill can see.
void audit_unreachable(AuditCtx& ctx, const Lattice& lat) {
  const int rows = lat.rows();
  const int cols = lat.cols();
  const std::vector<char> top = flood(lat, true);
  const std::vector<char> bottom = flood(lat, false);

  Solver solver(solver_options(ctx));
  for (int v = 0; v < lat.num_vars(); ++v) solver.new_var();
  const GuardedCells cells = encode_guarded_cells(solver, lat);
  const std::vector<Lit> reach_top =
      sat::encode_reach_exact(solver, rows, cols, cells.on, true);
  const std::vector<Lit> reach_bottom =
      sat::encode_reach_exact(solver, rows, cols, cells.on, false);

  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (lat.at(r, c).kind == CellValue::Kind::kConst0) continue;
      const std::size_t i = static_cast<std::size_t>(r) * cols + c;
      if (!top[i] || !bottom[i]) continue;  // FTL-L001 already flags it
      const std::vector<Lit> base = {reach_top[i], reach_bottom[i]};
      std::vector<Lit> assume = base;
      assume.insert(assume.end(), cells.guards.begin(), cells.guards.end());
      solver.set_max_conflicts(ctx.options.max_conflicts);
      ++ctx.audit.queries;
      if (solver.solve(assume) != LBool::kFalse) continue;
      bool proofs_ok = consume_unsat(ctx, solver);
      std::vector<int> core = minimize_core(ctx, solver, cells.guards,
                                            guard_core(solver, cells.guards),
                                            base, proofs_ok);
      ctx.audit.report.add(
          "FTL-L007", Severity::kWarning, cell_id(r, c),
          "switch at " + cell_id(r, c) +
              " can never conduct: no input assignment places it on a "
              "conducting top-to-bottom path (UNSAT core: " +
              core_cells(core, cols) + ")");
      if (!proofs_ok) {
        ctx.audit.report.add(
            "FTL-E003", Severity::kError, cell_id(r, c),
            "an UNSAT verdict behind the FTL-L007 finding at " +
                cell_id(r, c) +
                " failed the embedded LRAT checker; the finding is "
                "unverified");
      }
    }
  }
}

/// FTL-L006: is deleting row r (or column c) observationally invisible?
/// Fresh solver per candidate: the sub-lattice shares the surviving cells'
/// conductivity variables, both lattices get exact connectivity literals,
/// and a difference literal d (assumed) demands they disagree. UNSAT under
/// all guards + d means no input assignment distinguishes the two — the
/// certified analogue of FTL-L004, with the core naming the cells whose
/// semantics force the equivalence.
void audit_removable(AuditCtx& ctx, const Lattice& lat) {
  const int rows = lat.rows();
  const int cols = lat.cols();
  const auto try_candidate = [&](int axis, int index) {
    Solver solver(solver_options(ctx));
    for (int v = 0; v < lat.num_vars(); ++v) solver.new_var();
    const GuardedCells cells = encode_guarded_cells(solver, lat);
    std::vector<Lit> sub_on;
    for (int r = 0; r < rows; ++r) {
      if (axis == 0 && r == index) continue;
      for (int c = 0; c < cols; ++c) {
        if (axis == 1 && c == index) continue;
        sub_on.push_back(cells.on[static_cast<std::size_t>(r) * cols + c]);
      }
    }
    const Lit full = sat::encode_connected_exact(solver, rows, cols, cells.on);
    const Lit sub =
        sat::encode_connected_exact(solver, axis == 0 ? rows - 1 : rows,
                                    axis == 1 ? cols - 1 : cols, sub_on);
    // d → (full XOR sub); only this direction matters since d is assumed.
    const Lit diff = Lit::of(solver.new_var());
    solver.add_clause({~diff, full, sub});
    solver.add_clause({~diff, ~full, ~sub});

    const std::vector<Lit> base = {diff};
    std::vector<Lit> assume = base;
    assume.insert(assume.end(), cells.guards.begin(), cells.guards.end());
    solver.set_max_conflicts(ctx.options.max_conflicts);
    ++ctx.audit.queries;
    if (solver.solve(assume) != LBool::kFalse) return;
    bool proofs_ok = consume_unsat(ctx, solver);
    std::vector<int> core = minimize_core(ctx, solver, cells.guards,
                                          guard_core(solver, cells.guards),
                                          base, proofs_ok);
    const std::string object =
        (axis == 0 ? "row " : "col ") + std::to_string(index);
    ctx.audit.report.add(
        "FTL-L006", Severity::kNote, object,
        (axis == 0 ? "row " : "column ") + std::to_string(index) +
            " can be removed without changing the realized function "
            "(SAT-certified on the exact connectivity miter; UNSAT core: " +
            core_cells(core, cols) + ")");
    if (!proofs_ok) {
      ctx.audit.report.add(
          "FTL-E003", Severity::kError, object,
          "an UNSAT verdict behind the FTL-L006 finding on " + object +
              " failed the embedded LRAT checker; the finding is unverified");
    }
  };
  if (rows > 1) {
    for (int r = 0; r < rows; ++r) try_candidate(0, r);
  }
  if (cols > 1) {
    for (int c = 0; c < cols; ++c) try_candidate(1, c);
  }
}

/// FTL-L008: does a strictly smaller lattice realize the same function?
/// Two CEGAR synthesis runs on the (rows-1)×cols and rows×(cols-1) shapes.
/// Needs the realized truth table, so it carries its own variable cap; an
/// infeasible answer is a clean bill (the lattice is shape-minimal in that
/// direction) whose proof is still checked under certify.
void audit_suboptimal(AuditCtx& ctx, const Lattice& lat) {
  const int rows = lat.rows();
  const int cols = lat.cols();
  const int nv = lat.num_vars();
  if (!ctx.options.suboptimal) return;
  if (nv > ctx.options.suboptimal_max_vars) return;
  if (nv > logic::TruthTable::kMaxVars) return;
  if (rows * cols <= 1) return;
  const logic::TruthTable realized = lattice::realized_truth_table(lat);

  const int shapes[2][2] = {{rows - 1, cols}, {rows, cols - 1}};
  for (const auto& shape : shapes) {
    const int sub_rows = shape[0];
    const int sub_cols = shape[1];
    if (sub_rows < 1 || sub_cols < 1 || sub_rows * sub_cols > 64) continue;
    lattice::SatSynthesisOptions synth;
    synth.certify = ctx.options.certify;
    synth.max_conflicts = ctx.options.suboptimal_conflicts;
    ++ctx.audit.queries;
    const lattice::SatSynthesisResult result =
        lattice::synth_sat(realized, sub_rows, sub_cols, synth);
    if (result.lattice.has_value()) {
      ctx.audit.report.add(
          "FTL-L008", Severity::kNote, "lattice",
          "a smaller " + std::to_string(sub_rows) + "x" +
              std::to_string(sub_cols) +
              " lattice realizes the same function (found by CEGAR "
              "synthesis); the " +
              std::to_string(rows) + "x" + std::to_string(cols) +
              " array spends " +
              std::to_string(rows * cols - sub_rows * sub_cols) +
              (rows * cols - sub_rows * sub_cols == 1
                   ? " more switch than needed"
                   : " more switches than needed"));
      continue;
    }
    if (!result.proven_infeasible) continue;  // budget ran out: no verdict
    ++ctx.audit.unsat_verdicts;
    if (!ctx.options.certify) continue;
    if (result.proof_checked && result.proof_valid) {
      ++ctx.audit.certified_unsat;
      ctx.audit.proof_check_ms += result.proof_check_ms;
    } else {
      ++ctx.audit.proof_failures;
      ctx.audit.report.add(
          "FTL-E003", Severity::kError, "lattice",
          "the infeasibility proof for the " + std::to_string(sub_rows) +
              "x" + std::to_string(sub_cols) +
              " shape query failed the embedded LRAT checker");
    }
  }
}

}  // namespace

LatticeSatAudit audit_lattice_sat(const Lattice& lat,
                                  const LatticeSatAuditOptions& options) {
  LatticeSatAudit audit;
  const int rows = lat.rows();
  const int cols = lat.cols();
  const int nv = lat.num_vars();
  if (rows < 1 || cols < 1 || nv < 1) return audit;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const CellValue& cell = lat.at(r, c);
      if (cell.kind == CellValue::Kind::kLiteral &&
          (cell.literal.var < 0 || cell.literal.var >= nv)) {
        return audit;  // ill-formed: FTL-L003 is check_lattice's department
      }
    }
  }
  AuditCtx ctx{options, audit};
  audit_unreachable(ctx, lat);
  audit_removable(ctx, lat);
  audit_suboptimal(ctx, lat);
  return audit;
}

}  // namespace ftl::check
