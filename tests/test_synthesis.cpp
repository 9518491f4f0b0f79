// Lattice synthesis tests: the Altun–Riedel construction must realize every
// function it is given; the test-only odometer oracle must find known
// realizations and prove small impossibilities (it is the reference the SAT
// engine is checked against in test_sat_synthesis).
#include <gtest/gtest.h>

#include <random>

#include "ftl/lattice/function.hpp"
#include "ftl/lattice/known_mappings.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/logic/expr_parser.hpp"
#include "ftl/logic/isop.hpp"
#include "ftl/util/error.hpp"
#include "odometer_oracle.hpp"

namespace {

using ftl::lattice::altun_riedel_synthesis;
using ftl::lattice::Lattice;
using ftl::lattice::realizes;
using ftl::logic::TruthTable;
using ftl::oracle::odometer_synthesis;

TEST(AltunRiedel, ConstantFunctions) {
  const Lattice zero = altun_riedel_synthesis(TruthTable::constant(2, false));
  EXPECT_EQ(zero.cell_count(), 1);
  EXPECT_TRUE(ftl::lattice::realized_truth_table(zero).is_zero());

  const Lattice one = altun_riedel_synthesis(TruthTable::constant(2, true));
  EXPECT_EQ(one.cell_count(), 1);
  EXPECT_TRUE(ftl::lattice::realized_truth_table(one).is_one());
}

TEST(AltunRiedel, SingleLiteral) {
  const Lattice lat = altun_riedel_synthesis(TruthTable::variable(2, 1));
  EXPECT_TRUE(realizes(lat, TruthTable::variable(2, 1)));
  EXPECT_EQ(lat.cell_count(), 1);  // x is self-dual: 1x1 lattice
}

TEST(AltunRiedel, Xor2GivesTwoByTwo) {
  const TruthTable xor2 = TruthTable::from_bits(2, 0b0110);
  const Lattice lat = altun_riedel_synthesis(xor2, {"a", "b"});
  EXPECT_EQ(lat.rows(), 2);
  EXPECT_EQ(lat.cols(), 2);
  EXPECT_TRUE(realizes(lat, xor2));
}

TEST(AltunRiedel, Xor3GivesFourByFour) {
  // XOR3 is self-dual with a 4-product ISOP: the A-R lattice is 4x4,
  // larger than the paper's optimal 3x3 (as §II notes, improved algorithms
  // beat the baseline construction).
  const TruthTable xor3 = ftl::lattice::xor3_truth_table();
  const Lattice lat = altun_riedel_synthesis(xor3, {"a", "b", "c"});
  EXPECT_EQ(lat.rows(), 4);
  EXPECT_EQ(lat.cols(), 4);
  EXPECT_TRUE(realizes(lat, xor3));
}

TEST(AltunRiedel, SizeIsDualProductsByProducts) {
  const auto f = ftl::logic::parse_expression("a b + c d").table;
  const Lattice lat = altun_riedel_synthesis(f);
  EXPECT_EQ(lat.cols(), ftl::logic::isop(f).size());
  EXPECT_EQ(lat.rows(), ftl::logic::isop_of_dual(f).size());
  EXPECT_TRUE(realizes(lat, f));
}

struct RandomFunctionCase {
  int num_vars;
  unsigned seed;
};

class AltunRiedelRandom : public ::testing::TestWithParam<RandomFunctionCase> {};

TEST_P(AltunRiedelRandom, RealizesRandomFunctions) {
  const auto p = GetParam();
  std::mt19937 rng(p.seed);
  std::uniform_int_distribution<int> bit(0, 1);
  TruthTable f(p.num_vars);
  for (std::uint64_t m = 0; m < f.num_minterms(); ++m) f.set(m, bit(rng) == 1);
  const Lattice lat = altun_riedel_synthesis(f);
  EXPECT_TRUE(realizes(lat, f)) << "n=" << p.num_vars << " seed=" << p.seed
                                << "\n" << lat.to_string();
}

std::vector<RandomFunctionCase> random_cases() {
  std::vector<RandomFunctionCase> cases;
  for (int n = 1; n <= 4; ++n) {
    for (unsigned seed = 1; seed <= 8; ++seed) cases.push_back({n, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomFunctions, AltunRiedelRandom,
                         ::testing::ValuesIn(random_cases()));

TEST(ExhaustiveSynthesis, FindsXor2OnTwoByTwo) {
  const TruthTable xor2 = TruthTable::from_bits(2, 0b0110);
  const auto lat = odometer_synthesis(xor2, 2, 2);
  ASSERT_TRUE(lat.has_value());
  EXPECT_TRUE(realizes(*lat, xor2));
}

TEST(ExhaustiveSynthesis, ProvesXor2NeedsMoreThanOneCell) {
  const TruthTable xor2 = TruthTable::from_bits(2, 0b0110);
  EXPECT_FALSE(odometer_synthesis(xor2, 1, 1).has_value());
  EXPECT_FALSE(odometer_synthesis(xor2, 1, 2).has_value());
  EXPECT_FALSE(odometer_synthesis(xor2, 2, 1).has_value());
}

TEST(ExhaustiveSynthesis, AndOrNeedOnlyOneDimension) {
  const TruthTable both = TruthTable::variable(2, 0) & TruthTable::variable(2, 1);
  const auto lat_and = odometer_synthesis(both, 2, 1);
  ASSERT_TRUE(lat_and.has_value());
  EXPECT_TRUE(realizes(*lat_and, both));

  const TruthTable either = TruthTable::variable(2, 0) | TruthTable::variable(2, 1);
  const auto lat_or = odometer_synthesis(either, 1, 2);
  ASSERT_TRUE(lat_or.has_value());
  EXPECT_TRUE(realizes(*lat_or, either));
}

TEST(ExhaustiveSynthesis, LiteralsOnlyCannotRealizeXor3OnThreeByThree) {
  // The paper's minimum-size XOR3 lattice needs a constant cell: without
  // constants the complete search over all 6^9 assignments fails.
  const auto lat = odometer_synthesis(ftl::lattice::xor3_truth_table(), 3, 3,
                                      /*allow_constants=*/false);
  EXPECT_FALSE(lat.has_value());
}

TEST(AltunRiedelBdd, AgreesWithTruthTableRouteOnSmallFunctions) {
  for (unsigned seed = 1; seed <= 6; ++seed) {
    std::mt19937 rng(seed * 31);
    std::uniform_int_distribution<int> bit(0, 1);
    TruthTable f(4);
    for (std::uint64_t m = 0; m < f.num_minterms(); ++m) f.set(m, bit(rng) == 1);

    ftl::logic::BddManager mgr(4);
    const Lattice via_bdd =
        altun_riedel_synthesis(mgr, mgr.from_truth_table(f));
    EXPECT_TRUE(realizes(via_bdd, f)) << "seed " << seed;
    // Same construction, same ISOPs, same lattice dimensions.
    const Lattice via_tt = altun_riedel_synthesis(f);
    EXPECT_EQ(via_bdd.rows(), via_tt.rows());
    EXPECT_EQ(via_bdd.cols(), via_tt.cols());
  }
}

TEST(AltunRiedelBdd, SynthesizesBeyondTheTruthTableCeiling) {
  // 30 variables: f = OR of 10 disjoint 3-literal products. The lattice
  // cells carry variables no truth table in this library can hold.
  const int n = 30;
  ftl::logic::BddManager mgr(n);
  ftl::logic::BddRef f = mgr.zero();
  for (int base = 0; base < n; base += 3) {
    ftl::logic::BddRef product = mgr.one();
    for (int v = base; v < base + 3; ++v) {
      product = mgr.land(product, mgr.variable(v));
    }
    f = mgr.lor(f, product);
  }
  // Construction self-verifies by sampling (FTL_ENSURES inside).
  const Lattice lat = altun_riedel_synthesis(mgr, f);
  EXPECT_EQ(lat.num_vars(), n);
  EXPECT_EQ(lat.cols(), 10);  // one column per product
  // Spot checks: one product fully on -> 1; nothing on -> 0.
  EXPECT_TRUE(lat.evaluate(0b111));
  EXPECT_FALSE(lat.evaluate(0b011));
  EXPECT_TRUE(lat.evaluate(std::uint64_t{0b111} << 27));
  EXPECT_FALSE(lat.evaluate(0));
}

TEST(AltunRiedelBdd, ConstantsDegenerate) {
  ftl::logic::BddManager mgr(3);
  const Lattice zero = altun_riedel_synthesis(mgr, mgr.zero());
  EXPECT_EQ(zero.cell_count(), 1);
  EXPECT_FALSE(zero.evaluate(0b111));
  const Lattice one = altun_riedel_synthesis(mgr, mgr.one());
  EXPECT_TRUE(one.evaluate(0));
}

TEST(SearchContracts, RejectOversizedProblems) {
  // The shape ladder stops where synth_sat does: 64 cells.
  const TruthTable xor2 = TruthTable::from_bits(2, 0b0110);
  EXPECT_THROW(ftl::lattice::smallest_lattice(xor2, 65),
               ftl::ContractViolation);
  EXPECT_THROW(ftl::lattice::smallest_lattice(TruthTable(0), 1),
               ftl::ContractViolation);
  // The oracle enumerates candidates, so it stops far earlier.
  EXPECT_THROW(odometer_synthesis(xor2, 5, 5), ftl::ContractViolation);
  EXPECT_THROW(odometer_synthesis(TruthTable(7), 2, 2),
               ftl::ContractViolation);
}

}  // namespace
