// Monte-Carlo variability tests: determinism, degenerate spreads, yield
// monotonicity, bitwise agreement with the per-trial oracle, symbolic-LU
// amortization, and the per-switch override hook itself.
#include <gtest/gtest.h>

#include "ftl/bridge/variability.hpp"
#include "ftl/lattice/known_mappings.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/logic/expr_parser.hpp"
#include "ftl/spice/dcop.hpp"
#include "ftl/util/error.hpp"
#include "variability_oracle.hpp"

namespace {

using namespace ftl;

TEST(Variability, ZeroSpreadYieldsEveryDie) {
  const auto lat = lattice::xor3_lattice_3x3();
  bridge::VariabilityOptions options;
  options.trials = 5;
  const auto r = bridge::monte_carlo_yield(lat, lattice::xor3_truth_table(), options);
  EXPECT_EQ(r.passing, r.trials);
  EXPECT_DOUBLE_EQ(r.yield(), 1.0);
  EXPECT_LT(r.worst_low, 0.4);
  EXPECT_GT(r.worst_high, 1.1);
}

TEST(Variability, DeterministicForFixedSeed) {
  const auto f = logic::parse_expression("a b + c").table;
  const auto lat = lattice::altun_riedel_synthesis(f, {"a", "b", "c"});
  bridge::VariabilityOptions options;
  options.sigma_vth = 0.15;
  options.trials = 30;
  options.seed = 42;
  const auto a = bridge::monte_carlo_yield(lat, f, options);
  const auto b = bridge::monte_carlo_yield(lat, f, options);
  EXPECT_EQ(a.passing, b.passing);
  EXPECT_DOUBLE_EQ(a.worst_low, b.worst_low);
  EXPECT_DOUBLE_EQ(a.worst_high, b.worst_high);
}

TEST(Variability, ParallelMatchesSerialForFixedSeed) {
  // The per-trial RNG derivation makes the result a pure function of the
  // options: fanning trials across the pool must change nothing, bit for
  // bit, relative to a serial run.
  const auto f = logic::parse_expression("a b + c").table;
  const auto lat = lattice::altun_riedel_synthesis(f, {"a", "b", "c"});
  bridge::VariabilityOptions serial;
  serial.sigma_vth = 0.2;
  serial.sigma_kp_rel = 0.1;
  serial.trials = 24;
  serial.seed = 7;
  serial.max_threads = 1;
  bridge::VariabilityOptions parallel = serial;
  parallel.max_threads = 4;
  const auto a = bridge::monte_carlo_yield(lat, f, serial);
  const auto b = bridge::monte_carlo_yield(lat, f, parallel);
  EXPECT_EQ(a.passing, b.passing);
  EXPECT_DOUBLE_EQ(a.worst_low, b.worst_low);
  EXPECT_DOUBLE_EQ(a.worst_high, b.worst_high);
}

TEST(Variability, BatchedEngineMatchesPerTrialBitwise) {
  // monte_carlo_yield shares one circuit and one symbolic LU analysis per
  // worker chunk; the oracle builds a fresh circuit per (trial, code). Same
  // dice, same stamps, bitwise-identical LU replays — so the whole result
  // must match byte for byte, not merely statistically.
  const auto f = logic::parse_expression("a b + c").table;
  const auto lat = lattice::altun_riedel_synthesis(f, {"a", "b", "c"});
  bridge::VariabilityOptions batched;
  batched.sigma_vth = 0.25;  // large enough that some dies actually fail
  batched.sigma_kp_rel = 0.1;
  batched.trials = 20;
  batched.seed = 19;
  batched.max_threads = 1;

  const auto a = bridge::monte_carlo_yield(lat, f, batched);
  const auto b = oracle::per_trial_yield(lat, f, batched);
  EXPECT_LT(a.passing, a.trials);  // the spread must exercise the fail path
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.passing, b.passing);
  EXPECT_EQ(a.worst_low, b.worst_low);    // exact, not EXPECT_DOUBLE_EQ
  EXPECT_EQ(a.worst_high, b.worst_high);
}

TEST(Variability, BatchedParallelMatchesBatchedSerialBitwise) {
  // Threads split the batch into contiguous trial chunks, never a trial;
  // chunk boundaries only move which shared circuit serves a lane, and
  // every lane is bitwise-deterministic, so the reduction over trial order
  // cannot see the thread count.
  const auto f = logic::parse_expression("a b + c").table;
  const auto lat = lattice::altun_riedel_synthesis(f, {"a", "b", "c"});
  bridge::VariabilityOptions serial;
  serial.sigma_vth = 0.2;
  serial.sigma_kp_rel = 0.1;
  serial.trials = 18;
  serial.seed = 23;
  serial.max_threads = 1;
  bridge::VariabilityOptions parallel = serial;
  parallel.max_threads = 3;

  const auto a = bridge::monte_carlo_yield(lat, f, serial);
  const auto b = bridge::monte_carlo_yield(lat, f, parallel);
  EXPECT_EQ(a.passing, b.passing);
  EXPECT_EQ(a.worst_low, b.worst_low);
  EXPECT_EQ(a.worst_high, b.worst_high);
}

TEST(Variability, SerialYieldPaysOneSymbolicAnalysis) {
  // One worker chunk builds one circuit and solves every input code's
  // corners on it, so the sparse LU is analysed once for the whole call;
  // every other full factor is the re-pivot after a rejected replay.
  bridge::VariabilityOptions options;
  options.sigma_vth = 0.05;
  options.trials = 16;
  options.max_threads = 1;
  const spice::BatchCore& c = spice::batch_core();
  const std::uint64_t factors = c.symbolic_factors.get();
  const std::uint64_t fallbacks = c.lane_fallbacks.get();
  const std::uint64_t reuses = c.symbolic_reuses.get();
  bridge::monte_carlo_yield(lattice::xor3_lattice_3x3(),
                            lattice::xor3_truth_table(), options);
  EXPECT_EQ((c.symbolic_factors.get() - factors) -
                (c.lane_fallbacks.get() - fallbacks),
            1u);
  EXPECT_GT(c.symbolic_reuses.get(), reuses);
}

TEST(Variability, LargeSpreadCostsYield) {
  const auto lat = lattice::xor3_lattice_3x3();
  const auto xor3 = lattice::xor3_truth_table();
  bridge::VariabilityOptions mild;
  mild.sigma_vth = 0.01;
  mild.trials = 25;
  mild.seed = 3;
  bridge::VariabilityOptions harsh = mild;
  harsh.sigma_vth = 0.4;
  const auto r_mild = bridge::monte_carlo_yield(lat, xor3, mild);
  const auto r_harsh = bridge::monte_carlo_yield(lat, xor3, harsh);
  EXPECT_GE(r_mild.passing, r_harsh.passing);
  EXPECT_LT(r_harsh.yield(), 1.0);
}

TEST(Variability, RejectsBadOptions) {
  const auto lat = lattice::xor3_lattice_3x3();
  const auto xor3 = lattice::xor3_truth_table();
  bridge::VariabilityOptions options;
  options.trials = 0;
  EXPECT_THROW(bridge::monte_carlo_yield(lat, xor3, options),
               ftl::ContractViolation);
  options.trials = 1;
  options.sigma_vth = -0.1;
  EXPECT_THROW(bridge::monte_carlo_yield(lat, xor3, options),
               ftl::ContractViolation);
}

TEST(Variability, PerSwitchOverrideHookIsApplied) {
  // Cripple one specific switch via the hook and observe the function break:
  // proves the override reaches the right instance.
  const auto lat = lattice::xor3_lattice_3x3();
  bridge::LatticeCircuitOptions options;
  options.switch_param_fn = [](int row, int col,
                               const bridge::SwitchModelParams& nominal) {
    bridge::SwitchModelParams p = nominal;
    if (row == 1 && col == 1) p.vth = 10.0;  // never turns on
    return p;
  };
  // abc = 100 -> xor3 = 1 -> out should be LOW, and the only conducting
  // path of the 3x3 mapping runs through the centre constant-1 cell (1,1);
  // with that switch dead the pull-down path vanishes.
  std::map<int, spice::Waveform> drives;
  drives[0] = spice::Waveform::dc(1.2);
  bridge::LatticeCircuit lc = bridge::build_lattice_circuit(lat, drives, options);
  const spice::OpResult op = spice::dc_operating_point(lc.circuit);
  const double out =
      op.solution[static_cast<std::size_t>(lc.circuit.find_node("out"))];
  // The fault-free gate pulls low here (~0.09 V); with the (0,0) switch
  // dead the pull-down path must weaken or vanish.
  EXPECT_GT(out, 0.2);
}

}  // namespace
