// Gilbert-Peierls sparse LU: agreement with the dense kernel (and CG on
// SPD systems), numeric-only refactorization, pivot-degradation rejection,
// singular-input handling, the pattern-cached MNA assembly, and
// dense-vs-sparse Newton on real lattice circuits.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "ftl/bridge/lattice_netlist.hpp"
#include "ftl/lattice/known_mappings.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/linalg/cg.hpp"
#include "ftl/linalg/lu.hpp"
#include "ftl/linalg/sparse_lu.hpp"
#include "ftl/logic/expr_parser.hpp"
#include "ftl/spice/dcop.hpp"
#include "ftl/util/error.hpp"

namespace {

using namespace ftl;

double rel_error(const linalg::Vector& a, const linalg::Vector& b) {
  EXPECT_EQ(a.size(), b.size());
  double diff = 0.0;
  double norm = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::fabs(a[i] - b[i]));
    norm = std::max(norm, std::fabs(a[i]));
  }
  return diff / std::max(norm, 1e-300);
}

linalg::Vector dense_solve(const linalg::SparseMatrix& a, const linalg::Vector& b) {
  return linalg::solve(a.to_dense(), b);
}

/// Random sparse diagonally-dominant SPD matrix (graph-Laplacian + identity).
linalg::SparseMatrix random_spd(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<double> weight(0.1, 2.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  linalg::TripletList trip(n, n);
  std::vector<double> diag(n, 1.0);
  for (std::size_t e = 0; e < 4 * n; ++e) {
    const std::size_t r = pick(rng);
    const std::size_t c = pick(rng);
    if (r == c) continue;
    const double w = weight(rng);
    trip.add(r, c, -w);
    trip.add(c, r, -w);
    diag[r] += w;
    diag[c] += w;
  }
  for (std::size_t i = 0; i < n; ++i) trip.add(i, i, diag[i]);
  return linalg::SparseMatrix(trip);
}

/// Random sparse unsymmetric diagonally-dominant matrix.
linalg::SparseMatrix random_unsymmetric(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<double> weight(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  linalg::TripletList trip(n, n);
  std::vector<double> rowsum(n, 0.0);
  for (std::size_t e = 0; e < 5 * n; ++e) {
    const std::size_t r = pick(rng);
    const std::size_t c = pick(rng);
    if (r == c) continue;
    const double w = weight(rng);
    trip.add(r, c, w);
    rowsum[r] += std::fabs(w);
  }
  for (std::size_t i = 0; i < n; ++i) trip.add(i, i, rowsum[i] + 1.0);
  return linalg::SparseMatrix(trip);
}

linalg::Vector random_vector(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  linalg::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = dist(rng);
  return b;
}

TEST(SparseLu, MatchesDenseAndCgOnRandomSpd) {
  std::mt19937 rng(7);
  for (const std::size_t n : {10u, 40u, 120u}) {
    const linalg::SparseMatrix a = random_spd(n, rng);
    const linalg::Vector b = random_vector(n, rng);

    linalg::SparseLu lu;
    lu.factor(a);
    const linalg::Vector x_sparse = lu.solve(b);
    const linalg::Vector x_dense = dense_solve(a, b);
    const linalg::CgResult cg = linalg::conjugate_gradient(a, b);

    EXPECT_TRUE(cg.converged);
    EXPECT_LT(rel_error(x_sparse, x_dense), 1e-10) << "n=" << n;
    EXPECT_LT(rel_error(x_sparse, cg.x), 1e-9) << "n=" << n;
  }
}

TEST(SparseLu, MatchesDenseOnRandomUnsymmetric) {
  std::mt19937 rng(21);
  for (const std::size_t n : {10u, 50u, 150u}) {
    const linalg::SparseMatrix a = random_unsymmetric(n, rng);
    const linalg::Vector b = random_vector(n, rng);
    linalg::SparseLu lu;
    lu.factor(a);
    EXPECT_LT(rel_error(lu.solve(b), dense_solve(a, b)), 1e-10) << "n=" << n;
  }
}

TEST(SparseLu, RefactorReusesSymbolicAnalysis) {
  std::mt19937 rng(3);
  const std::size_t n = 60;
  linalg::SparseMatrix a = random_unsymmetric(n, rng);
  linalg::SparseLu lu;
  lu.factor(a);
  const std::size_t nnz_after_factor = lu.factor_nonzeros();

  // Same pattern, gently perturbed values: the numeric-only path must
  // accept and match a from-scratch factorization.
  std::uniform_real_distribution<double> jitter(0.9, 1.1);
  for (double& v : a.values()) v *= jitter(rng);
  const linalg::Vector b = random_vector(n, rng);
  ASSERT_TRUE(lu.refactor(a));
  EXPECT_EQ(lu.factor_nonzeros(), nnz_after_factor);
  EXPECT_LT(rel_error(lu.solve(b), dense_solve(a, b)), 1e-10);
}

TEST(SparseLu, RefactorRejectsDegradedPivotsAndDifferentPatterns) {
  std::mt19937 rng(11);
  const std::size_t n = 30;
  linalg::SparseMatrix a = random_unsymmetric(n, rng);
  linalg::SparseLu lu;
  lu.factor(a);

  // Collapse one pivot's magnitude: the recorded pivot order is no longer
  // numerically safe and refactor must hand control back to factor().
  linalg::SparseMatrix degraded = a;
  for (double& v : degraded.values()) v *= 1e-9;
  // (Uniform scaling keeps relative pivots fine — so instead zero out most
  // of one row to starve its recorded pivot.)
  degraded = a;
  const std::size_t row = n / 2;
  const auto& rs = degraded.row_start();
  for (std::size_t p = rs[row]; p < rs[row + 1]; ++p) {
    degraded.values()[p] *= 1e-12;
  }
  if (!lu.refactor(degraded)) {
    lu.factor(degraded);
  }
  const linalg::Vector b = random_vector(n, rng);
  EXPECT_LT(rel_error(lu.solve(b), dense_solve(degraded, b)), 1e-8);

  // A different pattern is always rejected.
  linalg::SparseMatrix other = random_spd(n, rng);
  linalg::SparseLu lu2;
  lu2.factor(a);
  EXPECT_FALSE(lu2.refactor(other));
}

TEST(SparseLu, AcceptedRefactorIsBitwiseIdenticalToFreshFactor) {
  // The contract corner batches rest on: an accepted replay is not merely
  // close to factor(a), it IS factor(a), bit for bit. Solve both
  // and compare with EXPECT_EQ (exact double equality, no tolerance).
  std::mt19937 rng(17);
  const std::size_t n = 60;
  linalg::SparseMatrix a = random_unsymmetric(n, rng);
  linalg::SparseLu replayed;
  replayed.factor(a);

  std::uniform_real_distribution<double> jitter(0.9, 1.1);
  for (int round = 0; round < 3; ++round) {
    for (double& v : a.values()) v *= jitter(rng);
    ASSERT_TRUE(replayed.refactor(a)) << "round=" << round;
    linalg::SparseLu fresh;
    fresh.factor(a);
    const linalg::Vector b = random_vector(n, rng);
    const linalg::Vector x_replayed = replayed.solve(b);
    const linalg::Vector x_fresh = fresh.solve(b);
    ASSERT_EQ(x_replayed.size(), x_fresh.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x_replayed[i], x_fresh[i]) << "round=" << round << " i=" << i;
    }
  }
}

TEST(SparseLu, MidSweepDegradationFallsBackBitwise) {
  // A value sweep that progressively starves one row's entries until the
  // recorded pivot order stops being what a fresh factor() would choose.
  // Engine A reuses one SparseLu with the refactor-else-factor idiom; engine
  // B factors from scratch at every step. They must agree bitwise at EVERY
  // step — including the steps where A rejected the replay — and the sweep
  // must actually cross the rejection threshold at least once.
  std::mt19937 rng(29);
  const std::size_t n = 40;
  const linalg::SparseMatrix base = random_unsymmetric(n, rng);
  const linalg::Vector b = random_vector(n, rng);
  const std::size_t row = n / 2;

  linalg::SparseLu engine_a;
  engine_a.factor(base);
  int rejections = 0;
  for (int t = 0; t <= 6; ++t) {
    linalg::SparseMatrix at = base;
    const double scale = std::pow(10.0, -2.0 * t);
    const auto& rs = at.row_start();
    for (std::size_t p = rs[row]; p < rs[row + 1]; ++p) {
      at.values()[p] *= scale;
    }
    if (!engine_a.refactor(at)) {
      ++rejections;
      engine_a.factor(at);
    }
    linalg::SparseLu engine_b;
    engine_b.factor(at);
    const linalg::Vector xa = engine_a.solve(b);
    const linalg::Vector xb = engine_b.solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(xa[i], xb[i]) << "t=" << t << " i=" << i;
    }
  }
  EXPECT_GE(rejections, 1) << "sweep never stressed the rejection path";
}

TEST(SparseLu, RefactorRelThresholdRejectsWeakenedDiagonalPivot) {
  // Deterministic 2x2 where the crossing is exactly the refactor_rel branch:
  // [[d, 1], [1, 2]]. The diagonal preference keeps row 0 pivotal while
  // d >= diag_preference * 1, so as d shrinks the reused pivot first fails
  // the refactor_rel fraction (same pivot row, weakened magnitude) and only
  // later drifts to row 1 outright.
  const auto make = [](double d) {
    linalg::TripletList trip(2, 2);
    trip.add(0, 0, d);
    trip.add(0, 1, 1.0);
    trip.add(1, 0, 1.0);
    trip.add(1, 1, 2.0);
    return linalg::SparseMatrix(trip);
  };
  linalg::SparseLuOptions strict;
  strict.refactor_rel = 0.5;

  linalg::SparseLu lu;
  lu.factor(make(1.0), strict);
  // d = 0.8: pivot row 0 keeps 0.8 of the column max — accepted.
  EXPECT_TRUE(lu.refactor(make(0.8), strict));
  // d = 0.3: row 0 still wins the diagonal preference (0.3 >= 0.1 * 1) so
  // there is no pivot drift, but 0.3 < refactor_rel * 1.0 — rejected.
  EXPECT_FALSE(lu.refactor(make(0.3), strict));
  lu.factor(make(0.3), strict);
  // d = 0.05: below the diagonal preference, a fresh factor() would now
  // pivot on row 1 — rejected as pivot-order drift.
  EXPECT_FALSE(lu.refactor(make(0.05), strict));
  lu.factor(make(0.05), strict);
  const linalg::Vector b{2.0, 3.0};
  EXPECT_LT(rel_error(lu.solve(b), dense_solve(make(0.05), b)), 1e-12);
}

TEST(SparseLu, ThrowsOnSingularMatrix) {
  linalg::TripletList trip(3, 3);
  trip.add(0, 0, 1.0);
  trip.add(0, 1, 2.0);
  trip.add(1, 0, 2.0);
  trip.add(1, 1, 4.0);  // row 1 = 2 * row 0, column 2 empty
  trip.add(2, 2, 1.0);
  const linalg::SparseMatrix a(trip, linalg::SparseMatrix::ZeroPolicy::kKeep);
  linalg::SparseLu lu;
  EXPECT_THROW(lu.factor(a), ftl::Error);
}

TEST(SparseLu, FailedFactorLeavesNothingToReplay) {
  // Structurally full, numerically singular (row 1 = 2 * row 0): the
  // elimination records two columns, then finds no pivot for the third.
  // The half-built record must not count as a factorization, or a replay
  // of the same pattern would walk past its end.
  const auto full3 = [](const double (&v)[3][3]) {
    linalg::TripletList trip(3, 3);
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t c = 0; c < 3; ++c) trip.add(r, c, v[r][c]);
    }
    return linalg::SparseMatrix(trip, linalg::SparseMatrix::ZeroPolicy::kKeep);
  };
  const linalg::SparseMatrix singular =
      full3({{1.0, 2.0, 3.0}, {2.0, 4.0, 6.0}, {1.0, 1.0, 1.0}});
  const linalg::SparseMatrix regular =
      full3({{4.0, 1.0, 1.0}, {1.0, 4.0, 1.0}, {1.0, 1.0, 4.0}});
  linalg::SparseLu lu;
  EXPECT_THROW(lu.factor(singular), ftl::Error);
  ASSERT_FALSE(lu.factored());
  EXPECT_FALSE(lu.refactor(regular));

  lu.factor(regular);
  const linalg::Vector b{1.0, 2.0, 3.0};
  EXPECT_LT(rel_error(lu.solve(b), dense_solve(regular, b)), 1e-12);
}

// ---- Pattern-cached MNA assembly on real lattice circuits ----------------

/// Assembles the MNA system of `circuit` at a zero iterate with both
/// backends and returns (dense A, dense z, sparse assembly).
struct AssembledSystem {
  linalg::Matrix a_dense{0, 0};
  linalg::Vector z;
  spice::SparseAssembly sparse;
};

AssembledSystem assemble_both(spice::Circuit& circuit) {
  const int n = circuit.prepare_unknowns();
  linalg::Vector zero(static_cast<std::size_t>(n), 0.0);
  spice::EvalContext ctx;
  ctx.solution = &zero;

  AssembledSystem sys;
  spice::DenseAssembly dense;
  dense.reset(static_cast<std::size_t>(n));
  spice::Stamper ds(dense);
  for (const auto& dev : circuit.devices()) dev->stamp(ds, ctx);
  sys.a_dense = dense.matrix();
  sys.z = dense.rhs();

  sys.sparse.reset(static_cast<std::size_t>(n));
  spice::Stamper ss(sys.sparse);
  for (const auto& dev : circuit.devices()) dev->stamp(ss, ctx);
  EXPECT_TRUE(sys.sparse.finalize());  // first pass defines the pattern
  return sys;
}

std::vector<lattice::Lattice> test_lattices() {
  std::vector<lattice::Lattice> lats;
  lats.push_back(lattice::altun_riedel_synthesis(
      logic::parse_expression("a b").table, {"a", "b"}));
  lats.push_back(lattice::altun_riedel_synthesis(
      logic::parse_expression("a b + c").table, {"a", "b", "c"}));
  lats.push_back(lattice::xor3_lattice_3x3());
  lats.push_back(lattice::altun_riedel_synthesis(
      logic::parse_expression("a b + b c + c d").table, {"a", "b", "c", "d"}));
  return lats;
}

TEST(SparseLu, SolvesLatticeMnaMatricesLikeDense) {
  for (const auto& lat : test_lattices()) {
    std::map<int, spice::Waveform> drives;
    drives[0] = spice::Waveform::dc(1.2);
    bridge::LatticeCircuit lc = bridge::build_lattice_circuit(lat, drives);
    AssembledSystem sys = assemble_both(lc.circuit);

    // The cached pattern must reproduce the dense matrix entry-for-entry.
    const linalg::CsrView a = sys.sparse.matrix();
    linalg::Matrix from_sparse(a.n, a.n);
    for (std::size_t r = 0; r < a.n; ++r) {
      for (std::size_t p = a.row_start[r]; p < a.row_start[r + 1]; ++p) {
        from_sparse(r, a.col_index[p]) += a.values[p];
      }
    }
    // Duplicate stamps merge in a different order than the dense +=
    // accumulation, so entries agree to rounding, not bit-for-bit.
    double max_entry_diff = 0.0;
    double max_entry = 0.0;
    for (std::size_t r = 0; r < a.n; ++r) {
      for (std::size_t c = 0; c < a.n; ++c) {
        max_entry_diff = std::max(
            max_entry_diff, std::fabs(from_sparse(r, c) - sys.a_dense(r, c)));
        max_entry = std::max(max_entry, std::fabs(sys.a_dense(r, c)));
      }
    }
    EXPECT_LT(max_entry_diff, 1e-14 * max_entry)
        << lat.rows() << "x" << lat.cols() << " lattice";

    linalg::SparseLu sparse_lu;
    sparse_lu.factor(a);
    const linalg::Vector x_sparse = sparse_lu.solve(sys.z);
    const linalg::Vector x_dense = linalg::solve(sys.a_dense, sys.z);
    EXPECT_LT(rel_error(x_sparse, x_dense), 1e-10)
        << lat.rows() << "x" << lat.cols() << " lattice";
  }
}

TEST(SparseAssembly, SecondPassKeepsPattern) {
  const auto lat = lattice::xor3_lattice_3x3();
  std::map<int, spice::Waveform> drives;
  drives[0] = spice::Waveform::dc(1.2);
  bridge::LatticeCircuit lc = bridge::build_lattice_circuit(lat, drives);
  const int n = lc.circuit.prepare_unknowns();
  linalg::Vector iterate(static_cast<std::size_t>(n), 0.0);
  spice::EvalContext ctx;
  ctx.solution = &iterate;

  spice::SparseAssembly assembly;
  assembly.reset(static_cast<std::size_t>(n));
  {
    spice::Stamper s(assembly);
    for (const auto& dev : lc.circuit.devices()) dev->stamp(s, ctx);
  }
  EXPECT_TRUE(assembly.finalize());
  const std::size_t nnz = assembly.matrix().nonzeros();

  // A different iterate swaps MOSFET drain/source stamp ORDER but not the
  // stamped position set: the cached pattern must absorb it unchanged.
  for (std::size_t i = 0; i < iterate.size(); ++i) {
    iterate[i] = 0.1 * static_cast<double>(i % 7) - 0.3;
  }
  assembly.reset(static_cast<std::size_t>(n));
  {
    spice::Stamper s(assembly);
    for (const auto& dev : lc.circuit.devices()) dev->stamp(s, ctx);
  }
  EXPECT_FALSE(assembly.finalize());
  EXPECT_EQ(assembly.matrix().nonzeros(), nnz);
}

TEST(NewtonModes, DenseAndSparseAgreeOnXor3) {
  const auto lat = lattice::xor3_lattice_3x3();
  for (std::uint64_t code = 0; code < 8; ++code) {
    std::map<int, spice::Waveform> drives;
    for (int v = 0; v < 3; ++v) {
      drives[v] = spice::Waveform::dc(((code >> v) & 1) != 0 ? 1.2 : 0.0);
    }
    bridge::LatticeCircuit dense_lc = bridge::build_lattice_circuit(lat, drives);
    bridge::LatticeCircuit sparse_lc = bridge::build_lattice_circuit(lat, drives);

    spice::NewtonOptions dense_opts;
    dense_opts.matrix_mode = spice::MatrixMode::kDense;
    spice::NewtonOptions sparse_opts;
    sparse_opts.matrix_mode = spice::MatrixMode::kSparse;

    const spice::OpResult rd = spice::dc_operating_point(dense_lc.circuit, dense_opts);
    const spice::OpResult rs = spice::dc_operating_point(sparse_lc.circuit, sparse_opts);
    ASSERT_TRUE(rd.converged);
    ASSERT_TRUE(rs.converged);
    EXPECT_LT(rel_error(rs.solution, rd.solution), 1e-9) << "code=" << code;
  }
}

}  // namespace
