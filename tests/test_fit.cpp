// Parameter-extraction tests: the level-1 equations themselves, recovery of
// known parameters from synthetic data, weighting behaviour, and the full
// TCAD -> fit pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "ftl/fit/extract.hpp"
#include "ftl/fit/mosfet_level1.hpp"
#include "ftl/util/error.hpp"

namespace {

using namespace ftl::fit;

Level1Params reference_params() {
  Level1Params p;
  p.kp = 3e-5;
  p.vth = 0.4;
  p.lambda = 0.03;
  p.width = 0.7e-6;
  p.length = 0.35e-6;
  return p;
}

TEST(Level1, CutoffRegion) {
  const Level1Params p = reference_params();
  EXPECT_DOUBLE_EQ(level1_ids(p, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(level1_ids(p, 0.4, 1.0), 0.0);  // exactly at Vth
  EXPECT_DOUBLE_EQ(level1_ids(p, -1.0, 5.0), 0.0);
}

TEST(Level1, TriodeMatchesFormula) {
  const Level1Params p = reference_params();
  const double vgs = 2.0;
  const double vds = 0.5;  // vds < vov = 1.6
  const double expected = p.beta() * ((vgs - p.vth) * vds - 0.5 * vds * vds) *
                          (1.0 + p.lambda * vds);
  EXPECT_DOUBLE_EQ(level1_ids(p, vgs, vds), expected);
}

TEST(Level1, SaturationMatchesFormula) {
  const Level1Params p = reference_params();
  const double vgs = 2.0;
  const double vds = 3.0;  // vds > vov
  const double vov = vgs - p.vth;
  const double expected = 0.5 * p.beta() * vov * vov * (1.0 + p.lambda * vds);
  EXPECT_DOUBLE_EQ(level1_ids(p, vgs, vds), expected);
}

TEST(Level1, ContinuousAcrossRegionBoundary) {
  const Level1Params p = reference_params();
  for (double vgs = 0.5; vgs <= 5.0; vgs += 0.5) {
    const double vov = vgs - p.vth;
    if (vov <= 0) continue;
    const double below = level1_ids(p, vgs, vov - 1e-9);
    const double above = level1_ids(p, vgs, vov + 1e-9);
    EXPECT_NEAR(below, above, 1e-9 * std::max(below, 1e-12)) << vgs;
  }
}

TEST(Level1, NegativeVdsRejected) {
  EXPECT_THROW(level1_ids(reference_params(), 1.0, -0.1),
               ftl::ContractViolation);
}

class Level1Derivative : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(Level1Derivative, MatchesFiniteDifferences) {
  const Level1Params p = reference_params();
  const auto [vgs, vds] = GetParam();
  const Level1Derivatives d = level1_derivatives(p, vgs, vds);
  const double h = 1e-7;
  EXPECT_NEAR(d.ids, level1_ids(p, vgs, vds), 1e-15);
  const double gm_fd = (level1_ids(p, vgs + h, vds) - level1_ids(p, vgs - h, vds)) / (2 * h);
  const double gds_fd = (level1_ids(p, vgs, vds + h) - level1_ids(p, vgs, std::max(vds - h, 0.0))) /
                        (vds - h >= 0.0 ? 2 * h : h);
  EXPECT_NEAR(d.gm, gm_fd, 1e-6 * std::max(std::fabs(gm_fd), 1e-9));
  EXPECT_NEAR(d.gds, gds_fd, 1e-5 * std::max(std::fabs(gds_fd), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, Level1Derivative,
    ::testing::Values(std::pair{2.0, 0.5}, std::pair{2.0, 3.0},
                      std::pair{1.0, 0.1}, std::pair{5.0, 5.0},
                      std::pair{0.2, 1.0},   // cutoff
                      std::pair{3.0, 2.0}));

std::vector<IvSample> synthesize_samples(const Level1Params& truth,
                                         double noise_fraction, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, 1.0);
  std::vector<IvSample> samples;
  for (double vg = 0.0; vg <= 5.0; vg += 0.25) {
    const double i = level1_ids(truth, vg, 5.0);
    samples.push_back({vg, 5.0, i * (1.0 + noise_fraction * noise(rng))});
  }
  for (double vd = 0.0; vd <= 5.0; vd += 0.25) {
    const double i = level1_ids(truth, 5.0, vd);
    samples.push_back({5.0, vd, i * (1.0 + noise_fraction * noise(rng))});
  }
  return samples;
}

struct RecoveryCase {
  double kp;
  double vth;
  double lambda;
  double noise;
};

class FitRecovery : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(FitRecovery, RecoversKnownParameters) {
  const auto c = GetParam();
  Level1Params truth;
  truth.kp = c.kp;
  truth.vth = c.vth;
  truth.lambda = c.lambda;
  truth.width = 0.7e-6;
  truth.length = 0.35e-6;
  const auto samples = synthesize_samples(truth, c.noise, 42);
  const FitResult fit =
      fit_level1(samples, initial_guess(samples, truth.width, truth.length));
  const double tol = c.noise > 0.0 ? 0.08 : 0.01;
  EXPECT_NEAR(fit.params.kp, truth.kp, tol * truth.kp);
  EXPECT_NEAR(fit.params.vth, truth.vth, 0.05 + tol);
  EXPECT_NEAR(fit.params.lambda, truth.lambda, 0.02 + tol * truth.lambda);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterSets, FitRecovery,
    ::testing::Values(RecoveryCase{3e-5, 0.4, 0.03, 0.0},
                      RecoveryCase{1e-4, 1.0, 0.0, 0.0},
                      RecoveryCase{5e-6, 0.16, 0.1, 0.0},
                      RecoveryCase{2e-5, 1.4, 0.05, 0.0},
                      RecoveryCase{3e-5, 0.4, 0.03, 0.01},
                      RecoveryCase{1e-4, 0.8, 0.02, 0.02}));

TEST(Fit, EmptySampleSetThrows) {
  EXPECT_THROW(fit_level1({}, Level1Params{}), ftl::Error);
}

TEST(Fit, ReportsUnweightedRms) {
  Level1Params truth = reference_params();
  const auto samples = synthesize_samples(truth, 0.0, 1);
  const FitResult fit =
      fit_level1(samples, initial_guess(samples, truth.width, truth.length));
  EXPECT_LT(fit.rms, 1e-8);
  EXPECT_TRUE(fit.converged);
}

TEST(Fit, InitialGuessLandsNearTruth) {
  const Level1Params truth = reference_params();
  const auto samples = synthesize_samples(truth, 0.0, 2);
  const Level1Params guess = initial_guess(samples, truth.width, truth.length);
  // The sqrt regression on ideal square-law data is nearly exact (lambda
  // adds a small upward bias).
  EXPECT_NEAR(guess.vth, truth.vth, 0.3);
  EXPECT_NEAR(guess.kp, truth.kp, 0.3 * truth.kp);
}

TEST(Fit, SamplesFromCurvesStitchesBothScenarios) {
  ftl::tcad::IvCurve idvg;
  idvg.sweep_values = {0.0, 1.0};
  idvg.terminal_currents = {{1e-9, 0, 0, 0}, {2e-6, 0, 0, 0}};
  ftl::tcad::IvCurve idvd;
  idvd.sweep_values = {0.0, 5.0};
  idvd.terminal_currents = {{0.0, 0, 0, 0}, {5e-6, 0, 0, 0}};
  const auto samples = samples_from_curves(idvg, 5.0, idvd, 5.0, 0);
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_DOUBLE_EQ(samples[0].vds, 5.0);
  EXPECT_DOUBLE_EQ(samples[1].vgs, 1.0);
  EXPECT_DOUBLE_EQ(samples[2].vgs, 5.0);
  EXPECT_DOUBLE_EQ(samples[3].ids, 5e-6);
}

TEST(FitPipeline, ExtractsPositiveThresholdFromSquareDevice) {
  // Full §IV pipeline on a coarse mesh (kept small for test speed).
  const auto spec = ftl::tcad::make_device(ftl::tcad::DeviceShape::kSquare,
                                           ftl::tcad::GateDielectric::kHfO2);
  const ftl::tcad::NetworkSolver solver(ftl::tcad::build_mesh(spec, 24),
                                        ftl::tcad::ChargeSheetModel(spec));
  const FitResult fit = extract_from_device(
      solver, ftl::tcad::parse_bias_case("DSFF"), 0.7e-6, 0.35e-6);
  EXPECT_TRUE(fit.converged);
  EXPECT_GT(fit.params.kp, 1e-6);
  EXPECT_LT(fit.params.kp, 1e-3);
  EXPECT_GE(fit.params.vth, 0.0);  // the switch must turn off at Vgs = 0
  EXPECT_LT(fit.params.vth, 1.0);
  EXPECT_GE(fit.params.lambda, 0.0);
}

TEST(FitPipeline, ParallelLegsMatchSerialSweeps) {
  // paper_fit_sweeps runs its two legs side by side; each leg keeps its
  // warm-start chain, so the data equal the two sweeps run one after the
  // other, bit for bit.
  const auto spec = ftl::tcad::make_device(ftl::tcad::DeviceShape::kSquare,
                                           ftl::tcad::GateDielectric::kHfO2);
  const ftl::tcad::NetworkSolver solver(ftl::tcad::build_mesh(spec, 24),
                                        ftl::tcad::ChargeSheetModel(spec));
  const ftl::tcad::BiasCase dsff = ftl::tcad::parse_bias_case("DSFF");
  const FitSweepData data = paper_fit_sweeps(solver, dsff, 6);
  const ftl::tcad::IvCurve idvg =
      ftl::tcad::sweep_gate(solver, dsff, 5.0, 0.0, 5.0, 6);
  const ftl::tcad::IvCurve idvd =
      ftl::tcad::sweep_drain(solver, dsff, 5.0, 0.0, 5.0, 6);
  const auto same = [](const ftl::tcad::IvCurve& got,
                       const ftl::tcad::IvCurve& want) {
    ASSERT_EQ(got.terminal_currents.size(), want.terminal_currents.size());
    for (std::size_t i = 0; i < want.terminal_currents.size(); ++i) {
      EXPECT_EQ(std::memcmp(got.terminal_currents[i].data(),
                            want.terminal_currents[i].data(),
                            sizeof(want.terminal_currents[i])),
                0)
          << "point " << i;
    }
    EXPECT_EQ(got.solver_passes, want.solver_passes);
    EXPECT_EQ(got.unconverged_points, want.unconverged_points);
  };
  same(data.idvg, idvg);
  same(data.idvd, idvd);
  EXPECT_EQ(data.drain, 0);  // DSFF: the first terminal is the drain
}

}  // namespace
