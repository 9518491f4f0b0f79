// Corner batches (dcop_batch): bitwise agreement with standalone
// dc_operating_point across sparse and dense paths, chain_current_batch
// parity, per-lane failure reporting, and the process-wide batch_core
// counters and their attribution.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ftl/bridge/chain_netlist.hpp"
#include "ftl/bridge/lattice_netlist.hpp"
#include "ftl/lattice/known_mappings.hpp"
#include "ftl/spice/dcop.hpp"
#include "ftl/spice/sources.hpp"
#include "ftl/util/error.hpp"

namespace {

using namespace ftl;

TEST(SpiceBatch, MatchesStandaloneDcopBitwiseOnXor3) {
  // One shared circuit, 8 lanes = the 8 input codes, each lane retuned by
  // waveform only. Lane k's solution must equal — bit for bit — a fresh
  // standalone build + dc_operating_point at code k: this is the engine's
  // determinism contract, and what licenses every consumer to batch.
  const auto lat = lattice::xor3_lattice_3x3();
  const double vdd = bridge::LatticeCircuitOptions{}.vdd;

  bridge::LatticeCircuit lc = bridge::build_lattice_circuit(lat, {});
  const int num_vars = static_cast<int>(lc.var_names.size());
  ASSERT_EQ(num_vars, 3);
  std::vector<spice::VoltageSource*> pos(lc.var_names.size(), nullptr);
  std::vector<spice::VoltageSource*> neg(lc.var_names.size(), nullptr);
  for (std::size_t v = 0; v < lc.var_names.size(); ++v) {
    const std::string base = "Vin_" + lc.var_names[v];
    if (lc.circuit.has_device(base)) {
      pos[v] = dynamic_cast<spice::VoltageSource*>(&lc.circuit.device(base));
    }
    if (lc.circuit.has_device(base + "_n")) {
      neg[v] =
          dynamic_cast<spice::VoltageSource*>(&lc.circuit.device(base + "_n"));
    }
  }

  const auto apply = [&](std::size_t lane) {
    for (std::size_t v = 0; v < lc.var_names.size(); ++v) {
      const bool bit = ((lane >> v) & 1u) != 0;
      const spice::Waveform w = spice::Waveform::dc(bit ? vdd : 0.0);
      if (pos[v] != nullptr) pos[v]->set_waveform(w);
      if (neg[v] != nullptr) neg[v]->set_waveform(w.complemented(vdd));
    }
  };
  const std::vector<spice::BatchCornerResult> batch =
      spice::dcop_batch(lc.circuit, 8, apply);
  ASSERT_EQ(batch.size(), 8u);

  for (std::uint64_t code = 0; code < 8; ++code) {
    std::map<int, spice::Waveform> drives;
    for (int v = 0; v < num_vars; ++v) {
      drives[v] = spice::Waveform::dc(((code >> v) & 1) != 0 ? vdd : 0.0);
    }
    bridge::LatticeCircuit standalone =
        bridge::build_lattice_circuit(lat, drives);
    const spice::OpResult op = spice::dc_operating_point(standalone.circuit);

    const spice::BatchCornerResult& r = batch[code];
    ASSERT_FALSE(r.failed) << "code=" << code << ": " << r.error;
    ASSERT_TRUE(r.op.converged) << "code=" << code;
    EXPECT_EQ(r.op.iterations, op.iterations) << "code=" << code;
    EXPECT_EQ(r.op.gmin_used, op.gmin_used) << "code=" << code;
    ASSERT_EQ(r.op.solution.size(), op.solution.size());
    for (std::size_t i = 0; i < op.solution.size(); ++i) {
      EXPECT_EQ(r.op.solution[i], op.solution[i])
          << "code=" << code << " unknown=" << i;
    }
  }
}

TEST(SpiceBatch, ChainCurrentBatchMatchesPerPointBitwise) {
  // Fig. 12a sweeps, short chain (dense linear-solver path) and longer
  // chain (sparse path, LU replayed across lanes): the batched sweep must
  // hit the per-point scalar API exactly.
  std::vector<double> volts;
  for (int i = 0; i < 8; ++i) volts.push_back(0.3 + 0.35 * i);
  for (const int count : {1, 4}) {
    const std::vector<double> batched =
        bridge::chain_current_batch(count, volts, volts);
    ASSERT_EQ(batched.size(), volts.size());
    for (std::size_t k = 0; k < volts.size(); ++k) {
      const double serial = bridge::chain_current(count, volts[k], volts[k]);
      EXPECT_EQ(batched[k], serial) << "count=" << count << " v=" << volts[k];
    }
  }
}

TEST(SpiceBatch, CountersAccumulatePerBatchAndLane) {
  const spice::BatchCore& c = spice::batch_core();
  const std::uint64_t batches = c.batches.get();
  const std::uint64_t lanes = c.lanes.get();
  const std::uint64_t newton = c.newton_iterations.get();
  const std::uint64_t reuses = c.symbolic_reuses.get();
  const std::uint64_t refactors = c.numeric_refactors.get();
  std::vector<double> volts{0.5, 1.0, 1.5, 2.0};
  // 8 switches put the MNA system above the dense cutover, so the lanes
  // exercise the sparse LU replay (the dense path never refactors).
  bridge::chain_current_batch(8, volts, volts);
  EXPECT_EQ(c.batches.get(), batches + 1);
  EXPECT_EQ(c.lanes.get(), lanes + volts.size());
  EXPECT_GT(c.newton_iterations.get(), newton);
  // Lane 0's first Newton iteration pays the one symbolic analysis; later
  // factorizations ride the recorded elimination.
  EXPECT_GT(c.symbolic_reuses.get(), reuses);
  EXPECT_EQ(c.numeric_refactors.get() - refactors,
            c.symbolic_reuses.get() - reuses);
}

using BatchDeltas = std::vector<std::uint64_t>;

/// Every batch_core counter's delta across one chain batch.
BatchDeltas chain_batch_deltas(const std::vector<double>& volts) {
  const auto a = spice::batch_core().set.snapshot();
  bridge::chain_current_batch(8, volts, volts);
  const auto b = spice::batch_core().set.snapshot();
  BatchDeltas deltas;
  for (std::size_t i = 0; i < b.size(); ++i) {
    deltas.push_back(b[i].value - a[i].value);
  }
  return deltas;
}

TEST(SpiceBatch, CountersCountOnlyTheBatchsOwnWork) {
  // batch_core is the batch circuit's own solver tally, never a difference
  // of process-wide totals: Newton solves on another thread's circuit,
  // running while the batch runs, must not leak into it.
  const std::vector<double> volts{0.5, 1.0, 1.5, 2.0};
  const BatchDeltas alone = chain_batch_deltas(volts);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> solves{0};
  std::thread background([&] {
    bridge::ChainCircuit other = bridge::build_switch_chain(8, 1.7, 1.7);
    while (!stop.load()) {
      spice::dc_operating_point(other.circuit);
      solves.fetch_add(1);
    }
  });
  while (solves.load() == 0) std::this_thread::yield();
  // Repeat until a background solve finished inside a batch at least once.
  int overlapped = 0;
  for (int round = 0; round < 200 && overlapped < 3; ++round) {
    const std::uint64_t solves_before = solves.load();
    EXPECT_EQ(chain_batch_deltas(volts), alone) << "round=" << round;
    if (solves.load() > solves_before + 1) ++overlapped;
  }
  stop = true;
  background.join();
  EXPECT_GT(overlapped, 0) << "the background solves never overlapped";
}

TEST(SpiceBatch, PresolveRejectionFailsEveryLaneWithoutThrowing) {
  // The corners share one topology, so the static gate renders one verdict;
  // the batch API reports it per lane instead of throwing mid-batch.
  bridge::ChainCircuit chain = bridge::build_switch_chain(2, 1.2, 1.2);
  chain.circuit.set_presolve_hook(
      [](const spice::Circuit&) { throw ftl::Error("lint: gate rejected"); });
  const auto results =
      spice::dcop_batch(chain.circuit, 3, [](std::size_t) {});
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.error.find("gate rejected"), std::string::npos);
    EXPECT_FALSE(r.op.converged);
  }
}

}  // namespace
