// The embedded CDCL solver: literal packing, hand-built instances, clause
// learning on pigeonhole formulas, randomized cross-checks against the DPLL
// reference, determinism, assumptions, conflict budgets, and the path
// encodings against a scalar BFS ground truth.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "dpll_oracle.hpp"
#include "ftl/sat/encode.hpp"
#include "ftl/sat/proof.hpp"
#include "ftl/sat/solver.hpp"
#include "ftl/util/error.hpp"

namespace {

using ftl::oracle::dpll_solve;
using ftl::sat::encode_path_absent;
using ftl::sat::encode_path_exists;
using ftl::sat::LatticeSynthesisCnf;
using ftl::sat::LBool;
using ftl::sat::Lit;
using ftl::sat::sat_core;
using ftl::sat::SatCore;
using ftl::sat::Solver;
using ftl::sat::SolverOptions;
using ftl::sat::Var;

std::vector<Var> make_vars(Solver& solver, int n) {
  std::vector<Var> vars;
  for (int i = 0; i < n; ++i) vars.push_back(solver.new_var());
  return vars;
}

TEST(SatLit, PackingRoundTrips) {
  const Lit a = Lit::of(3);
  EXPECT_EQ(a.var(), 3);
  EXPECT_TRUE(a.positive());
  EXPECT_TRUE(a.defined());
  const Lit na = ~a;
  EXPECT_EQ(na.var(), 3);
  EXPECT_FALSE(na.positive());
  EXPECT_EQ(~na, a);
  EXPECT_FALSE(Lit{}.defined());
  EXPECT_EQ(Lit::of(3, false), na);
}

TEST(SatSolver, EmptyFormulaIsSat) {
  Solver solver;
  EXPECT_EQ(solver.solve(), LBool::kTrue);
}

TEST(SatSolver, UnitClausesPropagateIntoModel) {
  Solver solver;
  const auto v = make_vars(solver, 2);
  ASSERT_TRUE(solver.add_clause({Lit::of(v[0])}));
  ASSERT_TRUE(solver.add_clause({~Lit::of(v[1])}));
  ASSERT_EQ(solver.solve(), LBool::kTrue);
  EXPECT_EQ(solver.model_value(v[0]), LBool::kTrue);
  EXPECT_EQ(solver.model_value(v[1]), LBool::kFalse);
  EXPECT_EQ(solver.model_value(~Lit::of(v[1])), LBool::kTrue);
}

TEST(SatSolver, ContradictoryUnitsAreUnsatAtLevelZero) {
  Solver solver;
  const Var v = solver.new_var();
  ASSERT_TRUE(solver.add_clause({Lit::of(v)}));
  EXPECT_FALSE(solver.add_clause({~Lit::of(v)}));
  EXPECT_FALSE(solver.okay());
  EXPECT_EQ(solver.solve(), LBool::kFalse);
}

TEST(SatSolver, TautologyAndDuplicateLiteralsAreHandled) {
  Solver solver;
  const auto v = make_vars(solver, 2);
  // Tautology: dropped without constraining anything.
  ASSERT_TRUE(solver.add_clause({Lit::of(v[0]), ~Lit::of(v[0])}));
  EXPECT_EQ(solver.num_clauses(), 0u);
  // Duplicates merge to a unit.
  ASSERT_TRUE(solver.add_clause({Lit::of(v[1]), Lit::of(v[1])}));
  ASSERT_EQ(solver.solve(), LBool::kTrue);
  EXPECT_EQ(solver.model_value(v[1]), LBool::kTrue);
}

TEST(SatSolver, RejectsForeignLiterals) {
  Solver solver;
  EXPECT_THROW(solver.add_clause({Lit::of(0)}), ftl::ContractViolation);
  EXPECT_THROW(solver.add_clause({Lit{}}), ftl::ContractViolation);
}

TEST(SatSolver, TrueLitIsPinnedTrue) {
  Solver solver;
  const Lit t = solver.true_lit();
  EXPECT_EQ(t, solver.true_lit());  // lazily created once
  const Var v = solver.new_var();
  ASSERT_TRUE(solver.add_clause({~t, Lit::of(v)}));
  ASSERT_EQ(solver.solve(), LBool::kTrue);
  EXPECT_EQ(solver.model_value(t), LBool::kTrue);
  EXPECT_EQ(solver.model_value(v), LBool::kTrue);
}

/// Pigeonhole PHP(holes+1, holes): classically UNSAT and requires real
/// clause learning to refute at any speed.
void add_pigeonhole(Solver& solver, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<Var>> in(static_cast<std::size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      in[static_cast<std::size_t>(p)].push_back(solver.new_var());
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> somewhere;
    for (int h = 0; h < holes; ++h) {
      somewhere.push_back(Lit::of(in[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    }
    solver.add_clause(std::move(somewhere));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p = 0; p < pigeons; ++p) {
      for (int q = p + 1; q < pigeons; ++q) {
        solver.add_clause({~Lit::of(in[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]),
                           ~Lit::of(in[static_cast<std::size_t>(q)][static_cast<std::size_t>(h)])});
      }
    }
  }
}

TEST(SatSolver, PigeonholeIsUnsatAndLearnsClauses) {
  Solver solver;
  add_pigeonhole(solver, 5);
  EXPECT_EQ(solver.solve(), LBool::kFalse);
  EXPECT_GT(solver.stats().conflicts, 0u);
  EXPECT_GT(solver.stats().learned_clauses, 0u);
}

TEST(SatSolver, MinimizationShortensPigeonholeLearntClauses) {
  // Pigeonhole refutations resolve over long all-different chains, so
  // recursive self-subsumption must find removable literals. The verdict
  // is untouched; the learnt clauses just get shorter.
  SolverOptions minimize;
  minimize.minimize_learnts = true;
  Solver with(minimize);
  add_pigeonhole(with, 5);
  EXPECT_EQ(with.solve(), LBool::kFalse);
  EXPECT_GT(with.stats().minimized_literals, 0u);

  SolverOptions raw = minimize;
  raw.minimize_learnts = false;
  Solver without(raw);
  add_pigeonhole(without, 5);
  EXPECT_EQ(without.solve(), LBool::kFalse);
  EXPECT_EQ(without.stats().minimized_literals, 0u);
}

TEST(SatSolver, MinimizedClausesStillCertifyUnderDrat) {
  // A minimized learnt clause is hinted with the reasons lit_redundant
  // walked on top of the resolution chain, so the checker must accept
  // every minimized lemma.
  SolverOptions options;
  options.minimize_learnts = true;
  options.certify = true;
  Solver solver(options);
  add_pigeonhole(solver, 4);
  EXPECT_EQ(solver.solve(), LBool::kFalse);
  EXPECT_GT(solver.stats().minimized_literals, 0u);
  const ftl::sat::ProofCheckResult* check = solver.last_proof_check();
  ASSERT_NE(check, nullptr);
  EXPECT_TRUE(check->valid) << check->error;
  EXPECT_EQ(solver.proof_stats().failures, 0u);
  EXPECT_GE(solver.proof_stats().checks, 1u);
}

TEST(SatSolver, ConflictBudgetReturnsUndefAndCanBeRaised) {
  Solver solver;
  add_pigeonhole(solver, 7);
  solver.set_max_conflicts(1);
  EXPECT_EQ(solver.solve(), LBool::kUndef);
  EXPECT_TRUE(solver.okay());  // no verdict, solver still usable
  solver.set_max_conflicts(-1);
  EXPECT_EQ(solver.solve(), LBool::kFalse);
}

// -- randomized cross-check against the DPLL reference ----------------------

struct RandomCnf {
  int num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
};

RandomCnf random_3sat(int num_vars, int num_clauses, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> var_dist(0, num_vars - 1);
  std::uniform_int_distribution<int> sign_dist(0, 1);
  RandomCnf cnf;
  cnf.num_vars = num_vars;
  for (int i = 0; i < num_clauses; ++i) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(Lit::of(var_dist(rng), sign_dist(rng) == 0));
    }
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

bool model_satisfies(const RandomCnf& cnf, const Solver& solver) {
  for (const std::vector<Lit>& clause : cnf.clauses) {
    bool satisfied = false;
    for (const Lit p : clause) {
      if (solver.model_value(p) == LBool::kTrue) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

TEST(SatSolver, MinimizationPreservesVerdictsOnRandomInstances) {
  // Differential check at the ~4.26 phase transition: minimize on vs off
  // must render the same verdict on every instance, and every model the
  // minimizing solver produces must actually satisfy the formula.
  std::uint64_t minimized_total = 0;
  int sat_seen = 0;
  int unsat_seen = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const int num_vars = 6 + static_cast<int>(seed % 7);
    const int num_clauses = static_cast<int>(4.3 * num_vars);
    const RandomCnf cnf = random_3sat(num_vars, num_clauses, 0x5eed + seed);

    SolverOptions on;
    on.minimize_learnts = true;
    Solver a(on);
    SolverOptions off;
    off.minimize_learnts = false;
    Solver b(off);
    make_vars(a, cnf.num_vars);
    make_vars(b, cnf.num_vars);
    for (const std::vector<Lit>& clause : cnf.clauses) {
      a.add_clause(clause);
      b.add_clause(clause);
    }
    const LBool va = a.solve();
    const LBool vb = b.solve();
    ASSERT_EQ(va, vb) << "seed " << seed;
    if (va == LBool::kTrue) {
      EXPECT_TRUE(model_satisfies(cnf, a)) << "seed " << seed;
      ++sat_seen;
    } else {
      ++unsat_seen;
    }
    minimized_total += a.stats().minimized_literals;
    EXPECT_EQ(b.stats().minimized_literals, 0u);
  }
  EXPECT_GT(sat_seen, 5);
  EXPECT_GT(unsat_seen, 5);
  EXPECT_GT(minimized_total, 0u);  // the batch must exercise the minimizer
}

TEST(SatSolver, AgreesWithDpllOnRandomInstances) {
  // Clause/variable ratios straddling the ~4.26 3-SAT phase transition, so
  // the batch mixes easy-SAT, hard, and UNSAT instances.
  int sat_seen = 0;
  int unsat_seen = 0;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    const int num_vars = 6 + static_cast<int>(seed % 7);  // 6..12
    const double ratio = 2.0 + 0.05 * static_cast<double>(seed % 80);
    const int num_clauses = static_cast<int>(ratio * num_vars);
    const RandomCnf cnf = random_3sat(num_vars, num_clauses, 0xabc0 + seed);

    Solver solver;
    make_vars(solver, cnf.num_vars);
    for (const std::vector<Lit>& clause : cnf.clauses) {
      solver.add_clause(clause);
    }
    const LBool cdcl = solver.solve();
    const LBool reference = dpll_solve(cnf.num_vars, cnf.clauses);
    ASSERT_EQ(cdcl, reference) << "seed " << seed;
    if (cdcl == LBool::kTrue) {
      EXPECT_TRUE(model_satisfies(cnf, solver)) << "seed " << seed;
      ++sat_seen;
    } else {
      ++unsat_seen;
    }
  }
  // The batch must genuinely exercise both verdicts.
  EXPECT_GT(sat_seen, 10);
  EXPECT_GT(unsat_seen, 10);
}

TEST(SatSolver, IdenticalInputsGiveIdenticalTracesAndModels) {
  const RandomCnf cnf = random_3sat(12, 50, 0xdead);
  auto run = [&cnf](std::uint64_t seed) {
    SolverOptions options;
    options.seed = seed;
    auto solver = std::make_unique<Solver>(options);
    make_vars(*solver, cnf.num_vars);
    for (const std::vector<Lit>& clause : cnf.clauses) {
      solver->add_clause(clause);
    }
    EXPECT_EQ(solver->solve(), LBool::kTrue);
    return solver;
  };
  const auto a = run(1);
  const auto b = run(1);
  EXPECT_EQ(a->stats().conflicts, b->stats().conflicts);
  EXPECT_EQ(a->stats().decisions, b->stats().decisions);
  EXPECT_EQ(a->stats().propagations, b->stats().propagations);
  EXPECT_EQ(a->stats().seed, 1u);
  for (Var v = 0; v < a->num_vars(); ++v) {
    EXPECT_EQ(a->model_value(v), b->model_value(v));
  }
  // A different seed still reaches the same verdict (stats may differ).
  const auto c = run(7);
  EXPECT_EQ(c->stats().seed, 7u);
}

TEST(SatSolver, SolvesIncrementallyUnderAssumptions) {
  Solver solver;
  const auto v = make_vars(solver, 3);
  const Lit a = Lit::of(v[0]);
  const Lit b = Lit::of(v[1]);
  const Lit c = Lit::of(v[2]);
  ASSERT_TRUE(solver.add_clause({~a, b}));   // a -> b
  ASSERT_TRUE(solver.add_clause({~b, c}));   // b -> c

  ASSERT_EQ(solver.solve({a}), LBool::kTrue);
  EXPECT_EQ(solver.model_value(c), LBool::kTrue);

  // Assuming a and ~c is contradictory; the core names only assumptions.
  ASSERT_EQ(solver.solve({a, ~c}), LBool::kFalse);
  EXPECT_TRUE(solver.okay());  // conditionally unsat, not globally
  const std::vector<Lit>& failed = solver.failed_assumptions();
  EXPECT_FALSE(failed.empty());
  for (const Lit p : failed) {
    EXPECT_TRUE(p == ~a || p == c);
  }

  // The solver is reusable: clauses may be added and solving continues.
  ASSERT_TRUE(solver.add_clause({~c, a}));  // c -> a
  ASSERT_EQ(solver.solve({b}), LBool::kTrue);
  EXPECT_EQ(solver.model_value(a), LBool::kTrue);
  ASSERT_EQ(solver.solve({~a, b}), LBool::kFalse);
}

TEST(SatSolver, AssumptionContradictedAtLevelZeroFails) {
  Solver solver;
  const Var v = solver.new_var();
  ASSERT_TRUE(solver.add_clause({Lit::of(v)}));
  ASSERT_EQ(solver.solve({~Lit::of(v)}), LBool::kFalse);
  ASSERT_EQ(solver.failed_assumptions().size(), 1u);
  EXPECT_EQ(solver.failed_assumptions()[0], Lit::of(v));
  EXPECT_TRUE(solver.okay());
  EXPECT_EQ(solver.solve(), LBool::kTrue);
}

TEST(SatSolver, CountersAccumulateAcrossSolves) {
  const SatCore& c = sat_core();
  const std::uint64_t solves = c.solves.get();
  const std::uint64_t unsat = c.unsat.get();
  const std::uint64_t conflicts = c.conflicts.get();
  const std::uint64_t propagations = c.propagations.get();
  Solver solver;
  add_pigeonhole(solver, 4);
  EXPECT_EQ(solver.solve(), LBool::kFalse);
  EXPECT_EQ(c.solves.get(), solves + 1);
  EXPECT_EQ(c.unsat.get(), unsat + 1);
  EXPECT_GE(c.conflicts.get(), conflicts + solver.stats().conflicts);
  EXPECT_GT(c.propagations.get(), propagations);
}

// -- path encodings vs scalar BFS -------------------------------------------

/// Ground truth: BFS over ON cells from the top row to the bottom row.
bool bfs_connected(int rows, int cols, std::uint64_t on_bits) {
  const int cells = rows * cols;
  std::vector<char> reached(static_cast<std::size_t>(cells), 0);
  std::vector<int> queue;
  for (int c = 0; c < cols; ++c) {
    if ((on_bits >> c) & 1) {
      reached[static_cast<std::size_t>(c)] = 1;
      queue.push_back(c);
    }
  }
  while (!queue.empty()) {
    const int i = queue.back();
    queue.pop_back();
    if (i >= (rows - 1) * cols) return true;
    const int r = i / cols;
    const int c = i % cols;
    const int neighbors[4] = {r > 0 ? i - cols : -1,
                              r + 1 < rows ? i + cols : -1,
                              c > 0 ? i - 1 : -1, c + 1 < cols ? i + 1 : -1};
    for (const int j : neighbors) {
      if (j < 0 || reached[static_cast<std::size_t>(j)] != 0) continue;
      if (((on_bits >> j) & 1) == 0) continue;
      reached[static_cast<std::size_t>(j)] = 1;
      queue.push_back(j);
    }
  }
  return false;
}

/// Pins each cell's on-literal to the bits of `on_bits` and reports
/// satisfiability of the chosen encoding.
LBool solve_fixed_pattern(int rows, int cols, std::uint64_t on_bits,
                          bool exists_encoding) {
  Solver solver;
  std::vector<Lit> on;
  for (int i = 0; i < rows * cols; ++i) {
    on.push_back(Lit::of(solver.new_var()));
  }
  for (int i = 0; i < rows * cols; ++i) {
    const bool is_on = ((on_bits >> i) & 1) != 0;
    solver.add_clause({is_on ? on[static_cast<std::size_t>(i)]
                             : ~on[static_cast<std::size_t>(i)]});
  }
  if (exists_encoding) {
    encode_path_exists(solver, rows, cols, on);
  } else {
    encode_path_absent(solver, rows, cols, on);
  }
  return solver.solve();
}

TEST(SatEncode, PathEncodingsMatchBfsOnAllSmallGrids) {
  const int shapes[][2] = {{1, 1}, {1, 3}, {2, 2}, {3, 1}, {2, 3}, {3, 3}};
  for (const auto& shape : shapes) {
    const int rows = shape[0];
    const int cols = shape[1];
    const int cells = rows * cols;
    for (std::uint64_t on_bits = 0; on_bits < (std::uint64_t{1} << cells);
         ++on_bits) {
      const bool connected = bfs_connected(rows, cols, on_bits);
      EXPECT_EQ(solve_fixed_pattern(rows, cols, on_bits, true),
                connected ? LBool::kTrue : LBool::kFalse)
          << rows << "x" << cols << " pattern " << on_bits;
      EXPECT_EQ(solve_fixed_pattern(rows, cols, on_bits, false),
                connected ? LBool::kFalse : LBool::kTrue)
          << rows << "x" << cols << " pattern " << on_bits;
    }
  }
}

/// Ground truth for encode_reach_exact: the set of ON cells BFS-reachable
/// from the seed boundary through ON 4-neighbors.
std::vector<char> bfs_reach_set(int rows, int cols, std::uint64_t on_bits,
                                bool from_top) {
  const int cells = rows * cols;
  std::vector<char> reached(static_cast<std::size_t>(cells), 0);
  std::vector<int> queue;
  const int seed_row = from_top ? 0 : rows - 1;
  for (int c = 0; c < cols; ++c) {
    const int i = seed_row * cols + c;
    if ((on_bits >> i) & 1) {
      reached[static_cast<std::size_t>(i)] = 1;
      queue.push_back(i);
    }
  }
  while (!queue.empty()) {
    const int i = queue.back();
    queue.pop_back();
    const int r = i / cols;
    const int c = i % cols;
    const int neighbors[4] = {r > 0 ? i - cols : -1,
                              r + 1 < rows ? i + cols : -1,
                              c > 0 ? i - 1 : -1, c + 1 < cols ? i + 1 : -1};
    for (const int j : neighbors) {
      if (j < 0 || reached[static_cast<std::size_t>(j)] != 0) continue;
      if (((on_bits >> j) & 1) == 0) continue;
      reached[static_cast<std::size_t>(j)] = 1;
      queue.push_back(j);
    }
  }
  return reached;
}

TEST(SatEncode, ExactReachabilityMatchesBfsOnAllSmallGrids) {
  using ftl::sat::encode_connected_exact;
  using ftl::sat::encode_reach_exact;
  const int shapes[][2] = {{1, 1}, {1, 3}, {2, 2}, {3, 1}, {2, 3}, {3, 3}};
  for (const auto& shape : shapes) {
    const int rows = shape[0];
    const int cols = shape[1];
    const int cells = rows * cols;
    for (std::uint64_t on_bits = 0; on_bits < (std::uint64_t{1} << cells);
         ++on_bits) {
      Solver solver;
      std::vector<Lit> on;
      for (int i = 0; i < cells; ++i) on.push_back(Lit::of(solver.new_var()));
      for (int i = 0; i < cells; ++i) {
        ASSERT_TRUE(solver.add_clause({((on_bits >> i) & 1) != 0
                                           ? on[static_cast<std::size_t>(i)]
                                           : ~on[static_cast<std::size_t>(i)]}));
      }
      const std::vector<Lit> top =
          encode_reach_exact(solver, rows, cols, on, /*from_top=*/true);
      const std::vector<Lit> bottom =
          encode_reach_exact(solver, rows, cols, on, /*from_top=*/false);
      const Lit connected = encode_connected_exact(solver, rows, cols, on);
      // Exact (iff) definitions: every pattern extends to exactly one model.
      ASSERT_EQ(solver.solve(), LBool::kTrue)
          << rows << "x" << cols << " pattern " << on_bits;
      const std::vector<char> want_top =
          bfs_reach_set(rows, cols, on_bits, true);
      const std::vector<char> want_bottom =
          bfs_reach_set(rows, cols, on_bits, false);
      for (int i = 0; i < cells; ++i) {
        EXPECT_EQ(solver.model_value(top[static_cast<std::size_t>(i)]) ==
                      LBool::kTrue,
                  want_top[static_cast<std::size_t>(i)] != 0)
            << rows << "x" << cols << " pattern " << on_bits << " cell " << i;
        EXPECT_EQ(solver.model_value(bottom[static_cast<std::size_t>(i)]) ==
                      LBool::kTrue,
                  want_bottom[static_cast<std::size_t>(i)] != 0)
            << rows << "x" << cols << " pattern " << on_bits << " cell " << i;
      }
      EXPECT_EQ(solver.model_value(connected) == LBool::kTrue,
                bfs_connected(rows, cols, on_bits))
          << rows << "x" << cols << " pattern " << on_bits;
    }
  }
}

TEST(SatEncode, ChoiceOnMatchesLiteralSemantics) {
  // Choice 2v is "variable v positive", 2v+1 its negation; then constants.
  const int nv = 3;
  for (std::uint64_t m = 0; m < 8; ++m) {
    for (int v = 0; v < nv; ++v) {
      const bool bit = ((m >> v) & 1) != 0;
      EXPECT_EQ(LatticeSynthesisCnf::choice_on(2 * v, nv, m), bit);
      EXPECT_EQ(LatticeSynthesisCnf::choice_on(2 * v + 1, nv, m), !bit);
    }
    EXPECT_TRUE(LatticeSynthesisCnf::choice_on(2 * nv, nv, m));
    EXPECT_FALSE(LatticeSynthesisCnf::choice_on(2 * nv + 1, nv, m));
  }
}

TEST(SatEncode, SelectorEncodingIsExactlyOne) {
  Solver solver;
  LatticeSynthesisCnf cnf(solver, 2, 2, 2, /*allow_constants=*/true);
  EXPECT_EQ(cnf.num_choices(), 6);
  ASSERT_EQ(solver.solve(), LBool::kTrue);
  for (int cell = 0; cell < 4; ++cell) {
    int chosen = 0;
    for (int choice = 0; choice < cnf.num_choices(); ++choice) {
      if (solver.model_value(cnf.sel(cell, choice)) == LBool::kTrue) ++chosen;
    }
    EXPECT_EQ(chosen, 1);
  }
  const std::vector<int> pick = cnf.decode();
  ASSERT_EQ(pick.size(), 4u);
  for (const int p : pick) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, cnf.num_choices());
  }
}

TEST(SatEncode, DpllRejectsMalformedInput) {
  EXPECT_THROW(dpll_solve(1, {{Lit::of(1)}}), ftl::ContractViolation);
  EXPECT_EQ(dpll_solve(0, {}), LBool::kTrue);
  EXPECT_EQ(dpll_solve(0, {{}}), LBool::kFalse);
}

}  // namespace
