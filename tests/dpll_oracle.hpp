#pragma once
// Test-only reference SAT solver: recursive unit propagation plus
// first-unassigned-variable branching, no learning, no heuristics. It
// shares nothing with the CDCL engine but the Lit/LBool types, so the tests
// use it to cross-check the engine on small randomized instances —
// correctness oracle, not a performance tool. Keep it boring and obviously
// right.

#include <cstddef>
#include <utility>
#include <vector>

#include "ftl/sat/solver.hpp"
#include "ftl/util/error.hpp"

namespace ftl::oracle {

namespace dpll_detail {

inline sat::LBool lit_value(const std::vector<sat::LBool>& assign, sat::Lit p) {
  const sat::LBool v = assign[static_cast<std::size_t>(p.var())];
  if (v == sat::LBool::kUndef) return sat::LBool::kUndef;
  const bool truth = (v == sat::LBool::kTrue) == p.positive();
  return truth ? sat::LBool::kTrue : sat::LBool::kFalse;
}

/// Saturating unit propagation over the full clause list (quadratic and
/// proud of it). Returns false on a conflict.
inline bool propagate(const std::vector<std::vector<sat::Lit>>& clauses,
                      std::vector<sat::LBool>& assign) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const std::vector<sat::Lit>& clause : clauses) {
      int num_undef = 0;
      sat::Lit last_undef{-2};
      bool satisfied = false;
      for (const sat::Lit p : clause) {
        const sat::LBool v = lit_value(assign, p);
        if (v == sat::LBool::kTrue) {
          satisfied = true;
          break;
        }
        if (v == sat::LBool::kUndef) {
          ++num_undef;
          last_undef = p;
        }
      }
      if (satisfied) continue;
      if (num_undef == 0) return false;
      if (num_undef == 1) {
        assign[static_cast<std::size_t>(last_undef.var())] =
            last_undef.positive() ? sat::LBool::kTrue : sat::LBool::kFalse;
        changed = true;
      }
    }
  }
  return true;
}

inline bool search(const std::vector<std::vector<sat::Lit>>& clauses,
                   std::vector<sat::LBool>& assign) {
  if (!propagate(clauses, assign)) return false;
  for (std::size_t v = 0; v < assign.size(); ++v) {
    if (assign[v] != sat::LBool::kUndef) continue;
    for (const sat::LBool phase : {sat::LBool::kFalse, sat::LBool::kTrue}) {
      std::vector<sat::LBool> branch = assign;
      branch[v] = phase;
      if (search(clauses, branch)) {
        assign = std::move(branch);
        return true;
      }
    }
    return false;
  }
  return true;  // every variable assigned, no clause falsified
}

}  // namespace dpll_detail

/// Decides a CNF formula over variables [0, num_vars). Clauses use the same
/// Lit packing as sat::Solver. Returns kTrue with `model` filled (every
/// variable assigned) or kFalse; never kUndef. Intended for tiny instances
/// only — exponential time.
inline sat::LBool dpll_solve(int num_vars,
                             const std::vector<std::vector<sat::Lit>>& clauses,
                             std::vector<sat::LBool>* model = nullptr) {
  FTL_EXPECTS(num_vars >= 0);
  for (const std::vector<sat::Lit>& clause : clauses) {
    for (const sat::Lit p : clause) {
      FTL_EXPECTS(p.defined() && p.var() < num_vars);
    }
  }
  std::vector<sat::LBool> assign(static_cast<std::size_t>(num_vars),
                                 sat::LBool::kUndef);
  if (!dpll_detail::search(clauses, assign)) return sat::LBool::kFalse;
  for (sat::LBool& v : assign) {
    if (v == sat::LBool::kUndef) v = sat::LBool::kFalse;  // don't-care variables
  }
  if (model != nullptr) *model = std::move(assign);
  return sat::LBool::kTrue;
}

}  // namespace ftl::oracle
