// LRAT proof logging and the per-solver incremental checker: proofs from
// real solver runs (plain UNSAT, assumption UNSAT, incremental use) are
// accepted and replay into a fresh checker; each lemma is checked exactly
// once across queries; a real recorded proof with one mutation (a corrupted
// lemma, a bogus final clause, a broken deletion, a bogus hint) is
// rejected; and proof logging does not perturb the search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "ftl/sat/proof.hpp"
#include "ftl/sat/solver.hpp"

namespace {

using ftl::sat::ClauseId;
using ftl::sat::LBool;
using ftl::sat::Lit;
using ftl::sat::LratChecker;
using ftl::sat::MemoryProof;
using ftl::sat::ProofCheckResult;
using ftl::sat::ProofRecord;
using ftl::sat::ProofStep;
using ftl::sat::Solver;
using ftl::sat::SolverOptions;
using ftl::sat::Var;
using Records = std::vector<ProofRecord>;

SolverOptions certify_options() {
  SolverOptions options;
  options.certify = true;
  return options;
}

/// Pigeonhole principle with `holes`+1 pigeons: UNSAT, and small instances
/// force genuine clause learning (no level-0 shortcut). With `selectors`,
/// each pigeon's at-least-one clause is guarded by a fresh selector
/// literal, so the formula is UNSAT only under all of them as assumptions.
std::vector<Lit> add_pigeonhole(Solver& solver, int holes,
                                bool selectors = false) {
  const int pigeons = holes + 1;
  std::vector<std::vector<Var>> in(static_cast<std::size_t>(pigeons));
  for (auto& row : in) {
    for (int h = 0; h < holes; ++h) row.push_back(solver.new_var());
  }
  std::vector<Lit> guards;
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> at_least_one;
    if (selectors) {
      guards.push_back(Lit::of(solver.new_var()));
      at_least_one.push_back(~guards.back());
    }
    for (int h = 0; h < holes; ++h) {
      at_least_one.push_back(Lit::of(in[static_cast<std::size_t>(p)]
                                       [static_cast<std::size_t>(h)]));
    }
    EXPECT_TRUE(solver.add_clause(at_least_one));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p = 0; p < pigeons; ++p) {
      for (int q = p + 1; q < pigeons; ++q) {
        EXPECT_TRUE(solver.add_clause(
            {~Lit::of(in[static_cast<std::size_t>(p)]
                        [static_cast<std::size_t>(h)]),
             ~Lit::of(in[static_cast<std::size_t>(q)]
                        [static_cast<std::size_t>(h)])}));
      }
    }
  }
  return guards;
}

/// Feeds `records` into a fresh checker and certifies `claim`.
ProofCheckResult replay(const Records& records,
                        const std::vector<Lit>& claim = {}) {
  LratChecker checker;
  for (const ProofRecord& record : records) checker.apply(record);
  return checker.verdict(claim);
}

/// The recorded proof of a pigeonhole refutation, accepted as recorded.
Records pigeonhole_proof(int holes = 3) {
  MemoryProof memory;
  Solver solver(certify_options());
  solver.set_proof_sink(&memory);
  add_pigeonhole(solver, holes);
  EXPECT_EQ(solver.solve(), LBool::kFalse);
  EXPECT_TRUE(replay(memory.records()).valid);
  return memory.records();
}

/// Index of the last kDerive record: the proof's final (empty) clause.
std::size_t last_derive(const Records& records) {
  for (std::size_t i = records.size(); i-- > 0;) {
    if (records[i].step == ProofStep::kDerive) return i;
  }
  ADD_FAILURE() << "proof derives nothing";
  return 0;
}

ClauseId next_id(const Records& records) {
  ClauseId last = 0;
  for (const ProofRecord& record : records) last = std::max(last, record.id);
  return last + 1;
}

TEST(Proof, PigeonholeUnsatProofChecks) {
  MemoryProof memory;
  Solver solver(certify_options());
  solver.set_proof_sink(&memory);
  add_pigeonhole(solver, 4);
  ASSERT_EQ(solver.solve(), LBool::kFalse);

  const ProofCheckResult* result = solver.last_proof_check();
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->valid) << result->error;
  EXPECT_GT(result->lemmas, 0u);
  EXPECT_EQ(result->lemmas, solver.proof_stats().derived);
  EXPECT_EQ(solver.proof_stats().checks, 1u);
  EXPECT_EQ(solver.proof_stats().failures, 0u);
  EXPECT_GT(solver.proof_stats().derived, 0u);

  // The recording replays into a fresh checker with the same verdict.
  const ProofCheckResult again = replay(memory.records());
  EXPECT_TRUE(again.valid) << again.error;
  EXPECT_EQ(again.lemmas, result->lemmas);
}

TEST(Proof, SatVerdictRunsNoCheck) {
  Solver solver(certify_options());
  const Var a = solver.new_var();
  const Var b = solver.new_var();
  ASSERT_TRUE(solver.add_clause({Lit::of(a), Lit::of(b)}));
  ASSERT_EQ(solver.solve(), LBool::kTrue);
  EXPECT_EQ(solver.last_proof_check(), nullptr);
  EXPECT_EQ(solver.proof_stats().checks, 0u);
}

TEST(Proof, AssumptionUnsatCertifiesFailedAssumptionClause) {
  MemoryProof memory;
  Solver solver(certify_options());
  solver.set_proof_sink(&memory);
  const Var a = solver.new_var();
  const Var b = solver.new_var();
  const Var c = solver.new_var();
  // a -> b, b -> ~c. Assuming a and c is UNSAT.
  ASSERT_TRUE(solver.add_clause({~Lit::of(a), Lit::of(b)}));
  ASSERT_TRUE(solver.add_clause({~Lit::of(b), ~Lit::of(c)}));
  ASSERT_EQ(solver.solve({Lit::of(a), Lit::of(c)}), LBool::kFalse);
  ASSERT_FALSE(solver.failed_assumptions().empty());

  const ProofCheckResult* result = solver.last_proof_check();
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->valid) << result->error;
  // The failed-assumption clause is one lemma whose hints are the two
  // implication inputs, in trail order.
  const ProofRecord& final = memory.records().back();
  EXPECT_EQ(final.step, ProofStep::kDerive);
  EXPECT_EQ(final.lits, solver.failed_assumptions());
  EXPECT_EQ(final.hints, (std::vector<ClauseId>{1, 2}));
}

TEST(Proof, Level0ConflictFromAddClauseIsTriviallyCertified) {
  Solver solver(certify_options());
  const Var a = solver.new_var();
  ASSERT_TRUE(solver.add_clause({Lit::of(a)}));
  EXPECT_FALSE(solver.add_clause({~Lit::of(a)}));  // empty after level-0 strip
  ASSERT_EQ(solver.solve(), LBool::kFalse);
  const ProofCheckResult* result = solver.last_proof_check();
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->valid) << result->error;
}

TEST(Proof, IncrementalSolvesKeepTheProofCheckable) {
  Solver solver(certify_options());
  const Var a = solver.new_var();
  const Var b = solver.new_var();
  ASSERT_TRUE(solver.add_clause({Lit::of(a), Lit::of(b)}));
  ASSERT_EQ(solver.solve(), LBool::kTrue);
  ASSERT_TRUE(solver.add_clause({~Lit::of(a)}));
  // Forcing ~b as well empties the first clause at level 0: add_clause
  // reports the formula unsatisfiable, and the proof must still certify it.
  EXPECT_FALSE(solver.add_clause({~Lit::of(b)}));
  ASSERT_EQ(solver.solve(), LBool::kFalse);
  const ProofCheckResult* result = solver.last_proof_check();
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->valid) << result->error;
  // Later solves on the refuted formula certify again without new lemmas.
  ASSERT_EQ(solver.solve(), LBool::kFalse);
  EXPECT_TRUE(solver.last_proof_check()->valid);
  EXPECT_EQ(solver.last_proof_check()->lemmas, 0u);
}

TEST(Proof, EachLemmaIsCheckedOnceAcrossAssumptionQueries) {
  // K queries on one solver, UNSAT under all selectors and SAT with one
  // dropped. Every verdict checks exactly the lemmas recorded since the
  // previous verdict (SAT queries' lemmas included), never earlier ones.
  MemoryProof memory;
  Solver solver(certify_options());
  solver.set_proof_sink(&memory);
  const std::vector<Lit> guards = add_pigeonhole(solver, 4, true);
  constexpr int kQueries = 9;  // ends on an UNSAT query
  const auto derives = [&memory] {
    return static_cast<std::size_t>(std::count_if(
        memory.records().begin(), memory.records().end(),
        [](const ProofRecord& r) { return r.step == ProofStep::kDerive; }));
  };
  std::size_t checked = 0;
  std::size_t derived_at_last_verdict = 0;
  int verdicts = 0;
  for (int k = 0; k < kQueries; ++k) {
    std::vector<Lit> assume = guards;
    if (k % 2 == 1) {
      assume.erase(assume.begin() + k % static_cast<int>(guards.size()));
      ASSERT_EQ(solver.solve(assume), LBool::kTrue);
      continue;
    }
    std::rotate(assume.begin(), assume.begin() + k / 2, assume.end());
    ASSERT_EQ(solver.solve(assume), LBool::kFalse);
    const ProofCheckResult* result = solver.last_proof_check();
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->valid) << result->error;
    EXPECT_EQ(result->lemmas, derives() - derived_at_last_verdict);
    derived_at_last_verdict = derives();
    checked += result->lemmas;
    ++verdicts;
  }
  EXPECT_EQ(verdicts, (kQueries + 1) / 2);
  EXPECT_EQ(solver.proof_stats().checks, static_cast<std::uint64_t>(verdicts));
  EXPECT_EQ(checked, solver.proof_stats().derived);
  EXPECT_EQ(checked, derives());
}

TEST(Proof, LoggingDoesNotPerturbTheSearch) {
  Solver plain;
  add_pigeonhole(plain, 4);
  ASSERT_EQ(plain.solve(), LBool::kFalse);

  Solver certified(certify_options());
  add_pigeonhole(certified, 4);
  ASSERT_EQ(certified.solve(), LBool::kFalse);

  EXPECT_EQ(plain.stats().conflicts, certified.stats().conflicts);
  EXPECT_EQ(plain.stats().decisions, certified.stats().decisions);
  EXPECT_EQ(plain.stats().propagations, certified.stats().propagations);
  EXPECT_EQ(plain.stats().learned_literals, certified.stats().learned_literals);
  EXPECT_EQ(plain.stats().minimized_literals,
            certified.stats().minimized_literals);
  EXPECT_EQ(plain.stats().deleted_clauses, certified.stats().deleted_clauses);
}

// -- adversarial proofs: a real recording with one mutation -------------------

TEST(ProofAdversarial, CorruptedDerivationIsRejected) {
  // Flipping any literal of any lemma is caught when that lemma arrives:
  // the flipped literal is now true in some hinted clause, which is then
  // satisfied rather than unit.
  const Records proof = pigeonhole_proof();
  int corrupted = 0;
  for (std::size_t i = 0; i < proof.size(); ++i) {
    if (proof[i].step != ProofStep::kDerive || proof[i].lits.empty()) continue;
    Records mutated = proof;
    mutated[i].lits[0] = ~mutated[i].lits[0];
    const ProofCheckResult result = replay(mutated);
    EXPECT_FALSE(result.valid) << "lemma " << proof[i].id;
    EXPECT_FALSE(result.error.empty());
    ++corrupted;
  }
  EXPECT_GT(corrupted, 0);
}

TEST(ProofAdversarial, BogusFinalClauseIsRejected) {
  // A satisfiable formula whose recorded proof is extended with a claimed
  // empty clause, hinted like the proof's last genuine lemma: the analogue
  // of mutated learning that fabricates an unsound conflict.
  MemoryProof memory;
  Solver solver(certify_options());
  solver.set_proof_sink(&memory);
  const std::vector<Lit> guards = add_pigeonhole(solver, 3, true);
  ASSERT_EQ(solver.solve(guards), LBool::kFalse);
  ASSERT_EQ(solver.solve({guards.begin() + 1, guards.end()}), LBool::kTrue);
  Records records = memory.records();
  const std::size_t last = last_derive(records);
  ASSERT_TRUE(replay(records, records[last].lits).valid);
  records.push_back(
      {ProofStep::kDerive, next_id(records), {}, records[last].hints});
  const ProofCheckResult result = replay(records);
  EXPECT_FALSE(result.valid);
  EXPECT_FALSE(result.error.empty());
}

TEST(ProofAdversarial, DerivationFromDeletedClauseIsRejected) {
  // Deleting a clause the final derivation cites, just before it.
  Records proof = pigeonhole_proof();
  const std::size_t final = last_derive(proof);
  ASSERT_FALSE(proof[final].hints.empty());
  Records mutated = proof;
  mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(final),
                 {ProofStep::kDelete, proof[final].hints.front(), {}, {}});
  const ProofCheckResult result = replay(mutated);
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.error.find("deleted"), std::string::npos) << result.error;
}

TEST(ProofAdversarial, DeletingAnUnknownClauseIsRejected) {
  Records proof = pigeonhole_proof();
  proof.insert(proof.begin() + 5,
               {ProofStep::kDelete, next_id(proof) + 100, {}, {}});
  const ProofCheckResult result = replay(proof);
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.error.find("deletion"), std::string::npos) << result.error;
}

TEST(ProofAdversarial, FinalClauseMismatchIsRejected) {
  MemoryProof memory;
  Solver solver(certify_options());
  solver.set_proof_sink(&memory);
  const std::vector<Lit> guards = add_pigeonhole(solver, 3, true);
  ASSERT_EQ(solver.solve(guards), LBool::kFalse);
  std::vector<Lit> claim = solver.failed_assumptions();
  ASSERT_TRUE(replay(memory.records(), claim).valid);

  // A claim with one literal flipped, one dropped, or the empty clause is
  // not what the proof ends with.
  std::vector<Lit> flipped = claim;
  flipped[0] = ~flipped[0];
  EXPECT_FALSE(replay(memory.records(), flipped).valid);
  std::vector<Lit> shorter(claim.begin() + 1, claim.end());
  EXPECT_FALSE(replay(memory.records(), shorter).valid);
  EXPECT_FALSE(replay(memory.records(), {}).valid);
}

TEST(ProofAdversarial, ProofWithNoDerivationIsRejected) {
  Records inputs = pigeonhole_proof();
  std::erase_if(inputs, [](const ProofRecord& r) {
    return r.step != ProofStep::kInput;
  });
  const ProofCheckResult result = replay(inputs);
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.error.find("derives nothing"), std::string::npos);
}

// -- bogus hints ----------------------------------------------------------------

TEST(ProofAdversarial, HintNamingAnIdNeverAddedIsRejected) {
  const Records proof = pigeonhole_proof();
  const std::size_t final = last_derive(proof);
  for (const ClauseId bogus : {ClauseId{0}, proof[final].id,
                               next_id(proof) + 7}) {
    Records mutated = proof;
    mutated[final].hints.front() = bogus;
    const ProofCheckResult result = replay(mutated);
    EXPECT_FALSE(result.valid) << bogus;
    EXPECT_NE(result.error.find("never added"), std::string::npos)
        << result.error;
  }
}

TEST(ProofAdversarial, HintNamingADeletedIdIsRejected) {
  // A random 3-SAT run long enough for clause-database reduction: hint a
  // learnt clause the solver itself deleted, in the first lemma after it.
  MemoryProof memory;
  Solver solver(certify_options());
  solver.set_proof_sink(&memory);
  constexpr int kVars = 150;
  for (int v = 0; v < kVars; ++v) solver.new_var();
  std::uint64_t state = 12345;
  const auto draw = [&state](std::uint64_t n) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int>((state >> 33) % n);
  };
  for (int c = 0; c < 640; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(Lit::of(draw(kVars), draw(2) == 0));
    }
    solver.add_clause(clause);
  }
  solver.set_max_conflicts(5000);
  solver.solve();
  const Records& proof = memory.records();
  const auto deletion = std::find_if(
      proof.begin(), proof.end(),
      [](const ProofRecord& r) { return r.step == ProofStep::kDelete; });
  ASSERT_NE(deletion, proof.end()) << "no clause-database reduction";
  const auto lemma = std::find_if(
      deletion, proof.end(),
      [](const ProofRecord& r) { return r.step == ProofStep::kDerive; });
  ASSERT_NE(lemma, proof.end());
  Records mutated = proof;
  const auto at = static_cast<std::size_t>(lemma - proof.begin());
  mutated[at].hints.front() = deletion->id;
  LratChecker checker;
  for (const ProofRecord& record : proof) checker.apply(record);
  EXPECT_TRUE(checker.ok());
  LratChecker bad;
  for (const ProofRecord& record : mutated) bad.apply(record);
  const ProofCheckResult result = bad.verdict();
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.error.find("deleted"), std::string::npos) << result.error;
}

TEST(ProofAdversarial, HintNotUnitAtItsPositionIsRejected) {
  // Put an input clause with two open literals ahead of a lemma's hints:
  // under the lemma's negation alone it is not unit.
  const Records proof = pigeonhole_proof();
  int mutated_lemmas = 0;
  for (std::size_t i = 0; i < proof.size(); ++i) {
    if (proof[i].step != ProofStep::kDerive) continue;
    const auto open = std::find_if(
        proof.begin(), proof.end(), [&](const ProofRecord& r) {
          if (r.step != ProofStep::kInput || r.id >= proof[i].id) return false;
          return std::count_if(r.lits.begin(), r.lits.end(), [&](Lit p) {
                   return std::none_of(
                       proof[i].lits.begin(), proof[i].lits.end(),
                       [p](Lit q) { return q.var() == p.var(); });
                 }) >= 2;
        });
    if (open == proof.end()) continue;
    Records mutated = proof;
    mutated[i].hints.insert(mutated[i].hints.begin(), open->id);
    const ProofCheckResult result = replay(mutated);
    EXPECT_FALSE(result.valid) << "lemma " << proof[i].id;
    EXPECT_NE(result.error.find("not unit"), std::string::npos)
        << result.error;
    ++mutated_lemmas;
  }
  EXPECT_GT(mutated_lemmas, 0);
}

TEST(ProofAdversarial, HintsOutOfOrderAreRejected) {
  // The empty clause's negation assigns nothing, so its falsified clause
  // (two or more literals, as every attached clause) cannot come first:
  // ahead of the units that falsify it, it is not unit. (Reversing a
  // two-clause resolution is no counterexample: either order refutes.)
  const Records proof = pigeonhole_proof();
  const std::size_t final = last_derive(proof);
  ASSERT_TRUE(proof[final].lits.empty());
  ASSERT_GE(proof[final].hints.size(), 2u);
  Records mutated = proof;
  std::rotate(mutated[final].hints.begin(), mutated[final].hints.end() - 1,
              mutated[final].hints.end());
  const ProofCheckResult result = replay(mutated);
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.error.find("not unit"), std::string::npos) << result.error;
}

TEST(ProofAdversarial, HintListStoppingBeforeTheConflictIsRejected) {
  // Dropping the last hint (the falsified clause) of any lemma leaves a
  // list of units that never reaches a conflict.
  const Records proof = pigeonhole_proof();
  int truncated = 0;
  for (std::size_t i = 0; i < proof.size(); ++i) {
    if (proof[i].step != ProofStep::kDerive || proof[i].hints.empty()) {
      continue;
    }
    Records mutated = proof;
    mutated[i].hints.pop_back();
    const ProofCheckResult result = replay(mutated);
    EXPECT_FALSE(result.valid) << "lemma " << proof[i].id;
    EXPECT_NE(result.error.find("before a conflict"), std::string::npos)
        << result.error;
    ++truncated;
  }
  EXPECT_GT(truncated, 0);
}

TEST(ProofAdversarial, HintsPastTheConflictAreRejected) {
  Records proof = pigeonhole_proof();
  const std::size_t final = last_derive(proof);
  proof[final].hints.push_back(proof[final].hints.front());
  const ProofCheckResult result = replay(proof);
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.error.find("past the conflict"), std::string::npos)
      << result.error;
}

}  // namespace
