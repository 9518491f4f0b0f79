// Corner batches vs the per-trial baseline: the same Monte-Carlo yield
// sweeps run through bridge::monte_carlo_yield (every input code's trials
// solved as corners of one spice::dcop_batch on a shared, retuned circuit)
// and through the test suite's per-trial oracle (tests/variability_oracle.hpp:
// a fresh netlist and standalone dc_operating_point per trial and code),
// plus the Fig. 12a chain sweep through chain_current_batch vs per-point
// calls.
//
// Built-in gates decide the exit code:
//  - identity: for every row the two paths must agree EXACTLY — same
//    trials, passing count, worst_low and worst_high bit for bit (a corner
//    batch's contract is bitwise equality, not statistical agreement), and
//    the multi-threaded batched run must match the serial batched run byte
//    for byte;
//  - symbolic amortization (full runs only): the promise is "one symbolic
//    factorization, K numeric corners", so every MC row must show the
//    batched path performing >= 3x fewer symbolic LU analyses than the
//    per-trial path (measured from the engine counters; one analysis per
//    worker chunk, plus a re-pivot per rejected replay, against one per
//    (trial, code));
//  - wall clock (full runs only): aggregate MC wall-clock must stay >=
//    1.1x over the per-trial path. The wall gate is deliberately below
//    the amortization gate: the bitwise contract pins every Newton
//    iteration's assemble/refactor/solve to identical work on both paths,
//    and on these MOSFET lattices the iterations are ~75% of the per-trial
//    runtime (the level-1 model's hard cutoff parks floating internal
//    nodes on a pinch-off double root, so Newton converges linearly at
//    ratio 1/2 for tens of iterations). Batching recovers essentially all
//    of the remaining ~25% — netlist builds, node numbering,
//    sparsity-pattern discovery, symbolic analysis — which measures
//    1.2-1.4x here, and more on the setup-heavier chain sweeps. --quick
//    rows are a few ms and timer jitter dominates, so the smoke run keeps
//    only the identity gates.
//
//   bench_spice_batch [out.json] [--quick]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "ftl/bridge/chain_netlist.hpp"
#include "ftl/bridge/variability.hpp"
#include "ftl/lattice/known_mappings.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/logic/expr_parser.hpp"
#include "ftl/spice/dcop.hpp"
#include "ftl/spice/linear_solver.hpp"
#include "ftl/util/table.hpp"
#include "variability_oracle.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kAmortizationGate = 3.0;  // symbolic analyses, per MC row
constexpr double kWallClockGate = 1.10;    // aggregate MC wall-clock

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct McRow {
  std::string name;
  int trials = 0;
  double per_trial_s = 0.0;
  double batched_s = 0.0;
  double yield = 0.0;
  double speedup = 0.0;
  std::uint64_t sym_per_trial = 0;  // symbolic LU analyses, per-trial oracle
  std::uint64_t sym_batched = 0;    // symbolic LU analyses, corner batches
  double amortization = 0.0;        // sym_per_trial / sym_batched
  bool ok = true;
};

McRow run_mc_row(const std::string& name, const ftl::lattice::Lattice& lat,
                 const ftl::logic::TruthTable& target, int trials,
                 double sigma_vth) {
  McRow row;
  row.name = name;
  row.trials = trials;

  ftl::bridge::VariabilityOptions options;
  options.sigma_vth = sigma_vth;
  options.sigma_kp_rel = 0.05;
  options.trials = trials;
  options.seed = 7;
  options.max_threads = 1;  // single-threaded on both sides: a fair race

  ftl::spice::spice_core().set.reset();
  auto start = Clock::now();
  const ftl::bridge::VariabilityResult a =
      ftl::oracle::per_trial_yield(lat, target, options);
  row.per_trial_s = seconds_since(start);
  // Every fresh MnaLinearSolver's first factor() is a full symbolic
  // analysis — one per (trial, code) solve on the per-trial path.
  row.sym_per_trial = ftl::spice::spice_core().factors.get();

  ftl::spice::batch_core().set.reset();
  start = Clock::now();
  const ftl::bridge::VariabilityResult b =
      ftl::bridge::monte_carlo_yield(lat, target, options);
  row.batched_s = seconds_since(start);
  row.sym_batched = ftl::spice::batch_core().symbolic_factors.get();

  row.yield = b.yield();
  row.speedup = row.batched_s > 0.0 ? row.per_trial_s / row.batched_s : 0.0;
  row.amortization =
      row.sym_batched > 0
          ? static_cast<double>(row.sym_per_trial) /
                static_cast<double>(row.sym_batched)
          : 0.0;

  if (a.trials != b.trials || a.passing != b.passing ||
      a.worst_low != b.worst_low || a.worst_high != b.worst_high) {
    std::fprintf(stderr,
                 "FAIL: %s: paths disagree (per-trial %d/%d low=%.17g "
                 "high=%.17g, batched %d/%d low=%.17g high=%.17g)\n",
                 name.c_str(), a.passing, a.trials, a.worst_low, a.worst_high,
                 b.passing, b.trials, b.worst_low, b.worst_high);
    row.ok = false;
  }

  // Thread-count invariance: contiguous chunks reduce in trial order, so a
  // 3-way split must reproduce the serial batched result byte for byte.
  ftl::bridge::VariabilityOptions threaded = options;
  threaded.max_threads = 3;
  const ftl::bridge::VariabilityResult c =
      ftl::bridge::monte_carlo_yield(lat, target, threaded);
  if (c.passing != b.passing || c.worst_low != b.worst_low ||
      c.worst_high != b.worst_high) {
    std::fprintf(stderr, "FAIL: %s: 3-thread batched differs from serial\n",
                 name.c_str());
    row.ok = false;
  }
  return row;
}

struct ChainRow {
  std::string name;
  int points = 0;
  double per_point_s = 0.0;
  double batched_s = 0.0;
  double speedup = 0.0;
  bool ok = true;
};

ChainRow run_chain_row(int count, int points) {
  ChainRow row;
  row.name = "chain n=" + std::to_string(count);
  row.points = points;
  std::vector<double> volts;
  for (int i = 0; i < points; ++i) {
    volts.push_back(0.3 + 2.7 * static_cast<double>(i) /
                              static_cast<double>(points - 1));
  }

  auto start = Clock::now();
  std::vector<double> serial;
  for (const double v : volts) {
    serial.push_back(ftl::bridge::chain_current(count, v, v));
  }
  row.per_point_s = seconds_since(start);

  start = Clock::now();
  const std::vector<double> batched =
      ftl::bridge::chain_current_batch(count, volts, volts);
  row.batched_s = seconds_since(start);
  row.speedup = row.batched_s > 0.0 ? row.per_point_s / row.batched_s : 0.0;

  for (std::size_t k = 0; k < volts.size(); ++k) {
    if (batched[k] != serial[k]) {
      std::fprintf(stderr, "FAIL: %s: point %zu differs (%.17g vs %.17g)\n",
                   row.name.c_str(), k, batched[k], serial[k]);
      row.ok = false;
    }
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_pr10.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      out_path = arg;
    }
  }

  const int mc_trials = quick ? 8 : 96;
  const auto xor3 = ftl::lattice::xor3_truth_table();
  const auto f_maj = ftl::logic::parse_expression("a b + b c + a c").table;

  std::vector<McRow> mc_rows;
  mc_rows.push_back(run_mc_row("xor3 3x3 tight", ftl::lattice::xor3_lattice_3x3(),
                               xor3, mc_trials, 0.05));
  mc_rows.push_back(run_mc_row("xor3 3x3 wide", ftl::lattice::xor3_lattice_3x3(),
                               xor3, mc_trials, 0.25));
  mc_rows.push_back(run_mc_row(
      "maj3 synth",
      ftl::lattice::altun_riedel_synthesis(f_maj, {"a", "b", "c"}), f_maj,
      mc_trials, 0.1));

  std::vector<ChainRow> chain_rows;
  chain_rows.push_back(run_chain_row(quick ? 3 : 5, quick ? 8 : 26));
  if (!quick) {
    chain_rows.push_back(run_chain_row(8, 26));
    chain_rows.push_back(run_chain_row(20, 40));
  }

  bool ok = true;
  double per_trial_total = 0.0;
  double batched_total = 0.0;
  for (const McRow& row : mc_rows) {
    ok = ok && row.ok;
    per_trial_total += row.per_trial_s;
    batched_total += row.batched_s;
    if (!quick && row.amortization < kAmortizationGate) {
      std::fprintf(stderr,
                   "FAIL: %s: symbolic amortization %.1fx below the %.1fx "
                   "gate (%llu vs %llu analyses)\n",
                   row.name.c_str(), row.amortization, kAmortizationGate,
                   static_cast<unsigned long long>(row.sym_per_trial),
                   static_cast<unsigned long long>(row.sym_batched));
      ok = false;
    }
  }
  for (const ChainRow& row : chain_rows) ok = ok && row.ok;

  const double mc_speedup =
      batched_total > 0.0 ? per_trial_total / batched_total : 0.0;
  if (!quick && mc_speedup < kWallClockGate) {
    std::fprintf(stderr,
                 "FAIL: aggregate MC wall-clock speedup %.2fx below the "
                 "%.2fx gate\n",
                 mc_speedup, kWallClockGate);
    ok = false;
  }

  const auto fmt = [](const char* spec, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, spec, value);
    return std::string(buf);
  };
  ftl::util::ConsoleTable table(
      {"row", "per-trial", "batched", "speedup", "sym amort", "identity"});
  for (const McRow& row : mc_rows) {
    table.add_row({row.name, fmt("%.1f ms", row.per_trial_s * 1e3),
                   fmt("%.1f ms", row.batched_s * 1e3),
                   fmt("%.2fx", row.speedup), fmt("%.1fx", row.amortization),
                   row.ok ? "bitwise" : "BROKEN"});
  }
  for (const ChainRow& row : chain_rows) {
    table.add_row({row.name, fmt("%.1f ms", row.per_point_s * 1e3),
                   fmt("%.1f ms", row.batched_s * 1e3),
                   fmt("%.2fx", row.speedup), "-",
                   row.ok ? "bitwise" : "BROKEN"});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "aggregate MC wall-clock speedup: %.2fx (gate %.2fx); symbolic "
      "amortization gate %.1fx per MC row (%s)\n",
      mc_speedup, kWallClockGate, kAmortizationGate,
      quick ? "not enforced under --quick" : "enforced");

  std::ofstream file(out_path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  file << "{\"bench\":\"spice_batch\",\"quick\":" << (quick ? "true" : "false")
       << ",\"wall_clock_gate\":" << kWallClockGate
       << ",\"amortization_gate\":" << kAmortizationGate
       << ",\"mc_speedup\":" << mc_speedup << ",\"mc_rows\":[";
  for (std::size_t i = 0; i < mc_rows.size(); ++i) {
    const McRow& row = mc_rows[i];
    if (i != 0) file << ",";
    file << "{\"row\":\"" << row.name << "\",\"trials\":" << row.trials
         << ",\"per_trial_ms\":" << row.per_trial_s * 1e3
         << ",\"batched_ms\":" << row.batched_s * 1e3
         << ",\"speedup\":" << row.speedup << ",\"yield\":" << row.yield
         << ",\"symbolic_per_trial\":" << row.sym_per_trial
         << ",\"symbolic_batched\":" << row.sym_batched
         << ",\"symbolic_amortization\":" << row.amortization
         << ",\"identical\":" << (row.ok ? "true" : "false") << "}";
  }
  file << "],\"chain_rows\":[";
  for (std::size_t i = 0; i < chain_rows.size(); ++i) {
    const ChainRow& row = chain_rows[i];
    if (i != 0) file << ",";
    file << "{\"row\":\"" << row.name << "\",\"points\":" << row.points
         << ",\"per_point_ms\":" << row.per_point_s * 1e3
         << ",\"batched_ms\":" << row.batched_s * 1e3
         << ",\"speedup\":" << row.speedup
         << ",\"identical\":" << (row.ok ? "true" : "false") << "}";
  }
  file << "]}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
