// CEGAR SAT synthesis against the test-only odometer oracle: encoding vs
// the connectivity kernel, engine-agreement property tests over every 3-var
// function, UNSAT agreement on infeasible shapes, the smallest_lattice
// shape ladder (sizes, certified minimality, budgets), determinism/seed
// reporting, the SAT equivalence backend, and the 5×5 / 8-variable
// headline the odometer cannot touch.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "ftl/check/equivalence.hpp"
#include "ftl/lattice/connectivity.hpp"
#include "ftl/lattice/function.hpp"
#include "ftl/lattice/lattice.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/logic/truth_table.hpp"
#include "ftl/sat/encode.hpp"
#include "ftl/sat/solver.hpp"
#include "ftl/util/error.hpp"
#include "odometer_oracle.hpp"

namespace {

using ftl::check::EquivalenceOptions;
using ftl::check::verify_equivalence;
using ftl::check::verify_equivalence_sat;
using ftl::lattice::CellValue;
using ftl::lattice::Lattice;
using ftl::lattice::realizes;
using ftl::lattice::SatSynthesisOptions;
using ftl::lattice::SatSynthesisResult;
using ftl::lattice::search_candidate_values;
using ftl::lattice::smallest_lattice;
using ftl::lattice::SmallestLatticeResult;
using ftl::lattice::synth_sat;
using ftl::lattice::top_bottom_connected_bits;
using ftl::logic::TruthTable;
using ftl::oracle::odometer_synthesis;

TruthTable xor_n(int n) {
  return TruthTable::from_function(n, [](std::uint64_t m) {
    return (std::popcount(m) & 1) != 0;
  });
}

Lattice random_lattice(int rows, int cols, int num_vars, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> choice(0, 2 * num_vars - 1);
  Lattice lat(rows, cols, num_vars);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int pick = choice(rng);
      lat.set(r, c, CellValue::of(pick / 2, pick % 2 == 0));
    }
  }
  return lat;
}

// -- encoding vs the connectivity kernel ------------------------------------

TEST(SatSynthesis, PathEncodingAgreesWithConnectivityKernel) {
  // The kernel (top_bottom_connected_bits) is the trusted evaluator; the
  // two CNF encodings must partition every fixed pattern the same way.
  const int rows = 3;
  const int cols = 2;
  for (std::uint64_t pattern = 0; pattern < 64; ++pattern) {
    const bool connected = top_bottom_connected_bits(pattern, rows, cols);
    for (const bool exists : {true, false}) {
      ftl::sat::Solver solver;
      std::vector<ftl::sat::Lit> on;
      for (int i = 0; i < rows * cols; ++i) {
        on.push_back(ftl::sat::Lit::of(solver.new_var()));
      }
      for (int i = 0; i < rows * cols; ++i) {
        solver.add_clause({((pattern >> i) & 1) != 0
                               ? on[static_cast<std::size_t>(i)]
                               : ~on[static_cast<std::size_t>(i)]});
      }
      if (exists) {
        ftl::sat::encode_path_exists(solver, rows, cols, on);
      } else {
        ftl::sat::encode_path_absent(solver, rows, cols, on);
      }
      EXPECT_EQ(solver.solve() == ftl::sat::LBool::kTrue,
                exists ? connected : !connected)
          << "pattern " << pattern << " exists=" << exists;
    }
  }
}

// -- engine agreement -------------------------------------------------------

TEST(SatSynthesis, AgreesWithExhaustiveOnEveryThreeVarFunctionAt2x2) {
  // Property: for every 3-var target and the 2×2 shape, the two engines
  // agree on feasibility, and any lattice either returns is verified to
  // realize the identical truth table (realizes() is bitslice-backed).
  int feasible = 0;
  int infeasible = 0;
  for (std::uint64_t bits = 0; bits < 256; ++bits) {
    const TruthTable target = TruthTable::from_bits(3, bits);
    const auto classical = odometer_synthesis(target, 2, 2);
    const SatSynthesisResult via_sat = synth_sat(target, 2, 2);
    ASSERT_EQ(classical.has_value(), via_sat.lattice.has_value())
        << "target bits " << bits;
    if (classical.has_value()) {
      EXPECT_TRUE(realizes(*classical, target));
      EXPECT_TRUE(realizes(*via_sat.lattice, target));
      EXPECT_FALSE(via_sat.proven_infeasible);
      ++feasible;
    } else {
      EXPECT_TRUE(via_sat.proven_infeasible) << "target bits " << bits;
      EXPECT_FALSE(via_sat.budget_exhausted);
      ++infeasible;
    }
  }
  // The 2×2 shape genuinely splits the space, so both verdicts ran.
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
}

TEST(SatSynthesis, AgreesWithExhaustiveOnRandomFourVarTargets) {
  std::mt19937_64 rng(0xfeed);
  for (int trial = 0; trial < 12; ++trial) {
    const std::uint64_t bits = rng() & 0xffff;
    const TruthTable target = TruthTable::from_bits(4, bits);
    const auto classical = odometer_synthesis(target, 2, 3);
    const SatSynthesisResult via_sat = synth_sat(target, 2, 3);
    ASSERT_EQ(classical.has_value(), via_sat.lattice.has_value())
        << "target bits " << bits;
    if (classical.has_value()) {
      EXPECT_TRUE(realizes(*via_sat.lattice, target));
      EXPECT_EQ(ftl::lattice::realized_truth_table(*via_sat.lattice),
                ftl::lattice::realized_truth_table(*classical));
    } else {
      EXPECT_TRUE(via_sat.proven_infeasible);
    }
  }
}

TEST(SatSynthesis, UnsatAgreementOnInfeasibleXorShapes) {
  // The paper's benchmark fact: XOR3 needs a 3×3; smaller shapes must be
  // proven infeasible by both engines.
  const TruthTable xor3 = xor_n(3);
  for (const auto& shape : {std::pair{2, 2}, std::pair{2, 3}}) {
    const auto classical = odometer_synthesis(xor3, shape.first, shape.second);
    EXPECT_FALSE(classical.has_value());
    const SatSynthesisResult via_sat =
        synth_sat(xor3, shape.first, shape.second);
    EXPECT_FALSE(via_sat.lattice.has_value());
    EXPECT_TRUE(via_sat.proven_infeasible);
    EXPECT_FALSE(via_sat.budget_exhausted);
  }
}

TEST(SatSynthesis, FindsTheXor3MappingOn3x3) {
  const TruthTable xor3 = xor_n(3);
  const SatSynthesisResult result = synth_sat(xor3, 3, 3);
  ASSERT_TRUE(result.lattice.has_value());
  EXPECT_TRUE(realizes(*result.lattice, xor3));
  EXPECT_GT(result.cegar_rounds, 0);
  EXPECT_GT(result.care_minterms, 0);
  EXPECT_GT(result.solver.propagations, 0u);
}

// -- determinism and seed reporting -----------------------------------------

TEST(SatSynthesis, IsDeterministicAndReportsTheSeed) {
  const TruthTable xor3 = xor_n(3);
  SatSynthesisOptions options;
  options.seed = 42;
  const SatSynthesisResult a = synth_sat(xor3, 3, 3, options);
  const SatSynthesisResult b = synth_sat(xor3, 3, 3, options);
  ASSERT_TRUE(a.lattice.has_value());
  ASSERT_TRUE(b.lattice.has_value());
  EXPECT_EQ(a.seed, 42u);
  EXPECT_EQ(a.solver.seed, 42u);
  EXPECT_EQ(a.cegar_rounds, b.cegar_rounds);
  EXPECT_EQ(a.solver.conflicts, b.solver.conflicts);
  EXPECT_EQ(a.solver.decisions, b.solver.decisions);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(a.lattice->at(r, c).kind, b.lattice->at(r, c).kind);
      EXPECT_EQ(a.lattice->at(r, c).literal.var,
                b.lattice->at(r, c).literal.var);
      EXPECT_EQ(a.lattice->at(r, c).literal.positive,
                b.lattice->at(r, c).literal.positive);
    }
  }
  // A different seed still solves (possibly via a different lattice).
  options.seed = 7;
  const SatSynthesisResult c = synth_sat(xor3, 3, 3, options);
  ASSERT_TRUE(c.lattice.has_value());
  EXPECT_EQ(c.seed, 7u);
  EXPECT_TRUE(realizes(*c.lattice, xor3));
}

TEST(SatSynthesis, BudgetExhaustionIsReportedNotSilent) {
  SatSynthesisOptions options;
  options.max_conflicts = 0;
  const SatSynthesisResult result = synth_sat(xor_n(3), 3, 3, options);
  EXPECT_FALSE(result.lattice.has_value());
  EXPECT_FALSE(result.proven_infeasible);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_EQ(result.cegar_rounds, 0);

  SatSynthesisOptions rounds;
  rounds.max_rounds = 1;
  const SatSynthesisResult one_round = synth_sat(xor_n(3), 3, 3, rounds);
  EXPECT_LE(one_round.cegar_rounds, 1);
  if (!one_round.lattice.has_value()) {
    EXPECT_TRUE(one_round.budget_exhausted);
  }
}

TEST(SatSynthesis, RejectsContractViolations) {
  EXPECT_THROW(synth_sat(xor_n(3), 0, 3), ftl::ContractViolation);
  EXPECT_THROW(synth_sat(TruthTable(0), 2, 2), ftl::ContractViolation);
  EXPECT_THROW(synth_sat(xor_n(3), 9, 9), ftl::ContractViolation);
}

// -- the smallest_lattice shape ladder --------------------------------------

TEST(SmallestLattice, MatchesTheOracleOnEveryThreeVarFunction) {
  // Every non-constant 3-var function, every shape up to 6 cells: the SAT
  // ladder and the odometer must agree on whether a lattice exists and on
  // its cell count, and the ladder must prove each smaller shape infeasible.
  int found = 0;
  for (std::uint64_t bits = 1; bits < 255; ++bits) {
    const TruthTable target = TruthTable::from_bits(3, bits);
    const SmallestLatticeResult ladder = smallest_lattice(target, 6);
    const int oracle_cells = ftl::oracle::odometer_min_cells(target, 6);
    ASSERT_EQ(ladder.lattice.has_value(), oracle_cells != 0)
        << "target bits " << bits;
    EXPECT_TRUE(ladder.proven_minimal) << "target bits " << bits;
    if (!ladder.lattice) continue;
    ++found;
    EXPECT_EQ(ladder.lattice->cell_count(), oracle_cells)
        << "target bits " << bits;
    EXPECT_TRUE(realizes(*ladder.lattice, target));
  }
  // Both verdicts occur: most functions fit in 6 cells, XOR3 does not.
  EXPECT_GT(found, 0);
  EXPECT_LT(found, 254);
}

TEST(SmallestLattice, CertifiesThatXor3NeedsNineCells) {
  // Fig. 3's claim as a checked proof: all 20 shapes below 9 cells are
  // infeasible with proofs the embedded checker accepts, and the
  // ladder finds a 3×3 lattice (1×9, the first 9-cell shape, is infeasible).
  SatSynthesisOptions options;
  options.certify = true;
  const SmallestLatticeResult ladder =
      smallest_lattice(xor_n(3), 9, options, {"a", "b", "c"});
  ASSERT_TRUE(ladder.lattice.has_value());
  EXPECT_EQ(ladder.lattice->rows(), 3);
  EXPECT_EQ(ladder.lattice->cols(), 3);
  EXPECT_TRUE(realizes(*ladder.lattice, xor_n(3)));
  EXPECT_TRUE(ladder.proven_minimal);
  int below_nine = 0;
  for (const auto& attempt : ladder.attempts) {
    if (attempt.rows * attempt.cols >= 9) continue;
    ++below_nine;
    EXPECT_TRUE(attempt.sat.proven_infeasible)
        << attempt.rows << "x" << attempt.cols;
    EXPECT_TRUE(attempt.sat.proof_checked);
    EXPECT_TRUE(attempt.sat.proof_valid);
  }
  EXPECT_EQ(below_nine, 20);
  // Rows ascend within a cell count: 1×9, then 3×3.
  ASSERT_EQ(ladder.attempts.size(), 22u);
  EXPECT_EQ(ladder.attempts[20].rows, 1);
  EXPECT_EQ(ladder.attempts[21].rows, 3);
}

TEST(SmallestLattice, ExhaustedBudgetIsNotProvenMinimal) {
  // XOR2 fits a 2×2, but with no conflicts to spend every shape stays open:
  // no lattice, and no claim of minimality either.
  SatSynthesisOptions options;
  options.max_conflicts = 0;
  const SmallestLatticeResult ladder = smallest_lattice(xor_n(2), 4, options);
  EXPECT_FALSE(ladder.lattice.has_value());
  EXPECT_FALSE(ladder.proven_minimal);
  ASSERT_FALSE(ladder.attempts.empty());
  for (const auto& attempt : ladder.attempts) {
    EXPECT_TRUE(attempt.sat.budget_exhausted);
  }
}

TEST(SearchBudget, CandidateOrderIsSharedBetweenEngines) {
  const auto choices = search_candidate_values(2, true);
  ASSERT_EQ(choices.size(), 6u);
  for (int v = 0; v < 2; ++v) {
    for (const bool positive : {true, false}) {
      const int index = 2 * v + (positive ? 0 : 1);
      EXPECT_EQ(choices[static_cast<std::size_t>(index)].kind,
                CellValue::Kind::kLiteral);
      EXPECT_EQ(choices[static_cast<std::size_t>(index)].literal.var, v);
      EXPECT_EQ(choices[static_cast<std::size_t>(index)].literal.positive,
                positive);
      // The CNF selector index must mean the same thing.
      for (std::uint64_t m = 0; m < 4; ++m) {
        EXPECT_EQ(ftl::sat::LatticeSynthesisCnf::choice_on(index, 2, m),
                  choices[static_cast<std::size_t>(index)].evaluate(m));
      }
    }
  }
  EXPECT_EQ(choices[4].kind, CellValue::Kind::kConst1);
  EXPECT_EQ(choices[5].kind, CellValue::Kind::kConst0);
}

// -- SAT equivalence backend ------------------------------------------------

TEST(SatEquivalence, ConfirmsAndRefutesLikeTheBddBackend) {
  std::mt19937_64 rng(0x5eed);
  for (int trial = 0; trial < 24; ++trial) {
    const Lattice lat = random_lattice(3, 3, 4, 1000 + trial);
    TruthTable target = ftl::lattice::realized_truth_table(lat);
    const bool mutate = (trial % 2) == 1;
    if (mutate) {
      target.set(rng() & 0xf, !target.get(rng() & 0xf));
    }
    EquivalenceOptions bdd_options;
    bdd_options.backend = EquivalenceOptions::Backend::kBdd;
    EquivalenceOptions sat_options;
    sat_options.backend = EquivalenceOptions::Backend::kSat;
    const auto bdd = verify_equivalence(lat, target, bdd_options);
    const auto sat = verify_equivalence(lat, target, sat_options);
    ASSERT_EQ(bdd.realizes, sat.realizes) << "trial " << trial;
    if (!sat.realizes) {
      // The counterexample must be genuine, whatever minterm each backend
      // picked.
      ASSERT_TRUE(sat.counterexample.has_value());
      const std::uint64_t m = *sat.counterexample;
      EXPECT_EQ(lat.evaluate(m), sat.lattice_value);
      EXPECT_NE(lat.evaluate(m), target.get(m));
    }
  }
}

TEST(SatEquivalence, HandlesConstantTargets) {
  Lattice ones(2, 2, 3);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) ones.set(r, c, CellValue::one());
  }
  EXPECT_TRUE(verify_equivalence_sat(ones, TruthTable::constant(3, true))
                  .realizes);
  const auto wrong =
      verify_equivalence_sat(ones, TruthTable::constant(3, false));
  EXPECT_FALSE(wrong.realizes);
  ASSERT_TRUE(wrong.counterexample.has_value());
  EXPECT_TRUE(wrong.lattice_value);
}

TEST(SatEquivalence, AutoBackendSwitchesOnVariableCount) {
  // With the threshold forced to 0, kAuto must route through the SAT miter
  // and still return the right verdict.
  const Lattice lat = random_lattice(3, 3, 4, 77);
  const TruthTable target = ftl::lattice::realized_truth_table(lat);
  EquivalenceOptions options;
  options.backend = EquivalenceOptions::Backend::kAuto;
  options.sat_fallback_vars = 0;
  EXPECT_TRUE(verify_equivalence(lat, target, options).realizes);
}

// -- symmetry breaking and certified infeasibility --------------------------

TEST(SatSynthesis, SymmetryBreakingPreservesEveryVerdict) {
  // The lex-leader constraints must never change feasibility — reflections
  // map solutions to solutions, so pruning to orbit representatives keeps
  // at least one model whenever any exists. Property-checked over every
  // 3-var function at 2×2, on vs off.
  for (std::uint64_t bits = 0; bits < 256; ++bits) {
    const TruthTable target = TruthTable::from_bits(3, bits);
    SatSynthesisOptions plain;
    plain.symmetry_break = false;
    const SatSynthesisResult off = synth_sat(target, 2, 2, plain);
    const SatSynthesisResult on = synth_sat(target, 2, 2);
    ASSERT_EQ(off.lattice.has_value(), on.lattice.has_value())
        << "target bits " << bits;
    EXPECT_EQ(off.proven_infeasible, on.proven_infeasible);
    if (on.lattice.has_value()) {
      EXPECT_TRUE(realizes(*on.lattice, target)) << "target bits " << bits;
    }
  }
}

TEST(SatSynthesis, CertifiedInfeasibilityChecksTheDratProof) {
  // XOR3 at 2×3 is the paper's infeasible shape; with certify the final
  // UNSAT must come back through the embedded proof checker accepted.
  SatSynthesisOptions options;
  options.certify = true;
  const SatSynthesisResult result = synth_sat(xor_n(3), 2, 3, options);
  EXPECT_TRUE(result.proven_infeasible);
  EXPECT_TRUE(result.proof_checked);
  EXPECT_TRUE(result.proof_valid);
  EXPECT_GE(result.proof_check_ms, 0.0);

  // A feasible run ends without an UNSAT, so there is nothing to certify —
  // the lattice itself is bitslice-verified instead.
  const SatSynthesisResult found = synth_sat(xor_n(3), 3, 3, options);
  ASSERT_TRUE(found.lattice.has_value());
  EXPECT_FALSE(found.proof_checked);
  EXPECT_FALSE(found.proof_valid);
}

// -- the headline: past the exhaustive wall ---------------------------------

TEST(SatSynthesis, SynthesizesAFiveByFiveEightVarLatticeExhaustiveCannot) {
  // Target: the function of a random 5×5 8-variable lattice — guaranteed
  // realizable at this shape, far outside both exhaustive contracts
  // (cells <= 20, vars <= 6). Seed 1 is a genuinely 8-dependent function
  // whose CEGAR run finishes in a couple of seconds.
  const Lattice secret = random_lattice(5, 5, 8, 1);
  const TruthTable target = ftl::lattice::realized_truth_table(secret);
  for (int v = 0; v < 8; ++v) {
    ASSERT_TRUE(target.depends_on(v)) << "variable " << v;
  }
  EXPECT_THROW(odometer_synthesis(target, 5, 5), ftl::ContractViolation);

  const SatSynthesisResult result = synth_sat(target, 5, 5);
  ASSERT_TRUE(result.lattice.has_value());
  EXPECT_TRUE(realizes(*result.lattice, target));
  EXPECT_EQ(result.lattice->rows(), 5);
  EXPECT_EQ(result.lattice->cols(), 5);
}

TEST(SatSynthesis, SynthesizesAStructuredEightVarFunctionOn5x5) {
  // f = x0x1 | x2x3 | x4x5 | x6x7: the kind of 8-variable target users
  // actually submit, and an easy CEGAR instance (subsecond).
  const TruthTable target =
      TruthTable::from_function(8, [](std::uint64_t m) {
        return ((m & 3) == 3) || (((m >> 2) & 3) == 3) ||
               (((m >> 4) & 3) == 3) || (((m >> 6) & 3) == 3);
      });
  const SatSynthesisResult result = synth_sat(target, 5, 5);
  ASSERT_TRUE(result.lattice.has_value());
  EXPECT_TRUE(realizes(*result.lattice, target));
}

}  // namespace
