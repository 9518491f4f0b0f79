// Sparse-matrix and conjugate-gradient tests, including agreement with the
// dense LU solver on random SPD systems and grid Laplacians (the exact
// workload of the TCAD network solver).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "ftl/linalg/cg.hpp"
#include "ftl/linalg/lu.hpp"
#include "ftl/linalg/sparse.hpp"
#include "ftl/util/error.hpp"

namespace {

using ftl::linalg::conjugate_gradient;
using ftl::linalg::Matrix;
using ftl::linalg::SparseMatrix;
using ftl::linalg::TripletList;
using ftl::linalg::Vector;

TEST(Sparse, SumsDuplicatesAndDropsZeros) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 0, 2.0);
  t.add(1, 1, 5.0);
  t.add(0, 1, 0.0);  // dropped
  t.add(1, 0, 3.0);
  t.add(1, 0, -3.0);  // cancels to zero -> dropped at build
  const SparseMatrix m(t);
  EXPECT_EQ(m.nonzeros(), 2u);
  const Vector y = m.multiply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
}

TEST(Sparse, DiagonalExtraction) {
  TripletList t(3, 3);
  t.add(0, 0, 2.0);
  t.add(1, 2, 9.0);
  t.add(2, 2, 4.0);
  const Vector d = SparseMatrix(t).diagonal();
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], 4.0);
}

TEST(Sparse, OutOfRangeTripletThrows) {
  TripletList t(2, 2);
  EXPECT_THROW(t.add(2, 0, 1.0), ftl::ContractViolation);
}

TEST(Cg, SolvesDiagonalSystemInstantly) {
  TripletList t(3, 3);
  t.add(0, 0, 2.0);
  t.add(1, 1, 4.0);
  t.add(2, 2, 8.0);
  const auto r = conjugate_gradient(SparseMatrix(t), {2.0, 4.0, 8.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-10);
  EXPECT_NEAR(r.x[1], 1.0, 1e-10);
  EXPECT_NEAR(r.x[2], 1.0, 1e-10);
}

TEST(Cg, ZeroRhsGivesZeroSolution) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  const auto r = conjugate_gradient(SparseMatrix(t), {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.x[0], 0.0);
}

class CgVsLu : public ::testing::TestWithParam<int> {};

TEST_P(CgVsLu, AgreesOnRandomSpdSystems) {
  const int n = GetParam();
  std::mt19937 rng(static_cast<unsigned>(n) * 13 + 1);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);

  // SPD by construction: A = B^T B + n I.
  Matrix b(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r)
    for (std::size_t c = 0; c < static_cast<std::size_t>(n); ++c) b(r, c) = dist(rng);
  Matrix a = b.gram();
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) a(i, i) += n;

  TripletList t(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r)
    for (std::size_t c = 0; c < static_cast<std::size_t>(n); ++c) t.add(r, c, a(r, c));

  Vector rhs(static_cast<std::size_t>(n));
  for (double& v : rhs) v = dist(rng);

  const auto cg = conjugate_gradient(SparseMatrix(t), rhs);
  const Vector lu = ftl::linalg::solve(a, rhs);
  ASSERT_TRUE(cg.converged);
  for (std::size_t i = 0; i < lu.size(); ++i) {
    EXPECT_NEAR(cg.x[i], lu[i], 1e-7) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgVsLu, ::testing::Values(2, 5, 10, 40, 100));

TEST(Cg, GridLaplacianDirichletProblem) {
  // 1-D chain of 50 unit conductances with the ends pinned at 0 and 1
  // (folded into the RHS): interior solution is linear in position.
  const int n = 49;  // interior nodes
  TripletList t(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  Vector rhs(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    t.add(static_cast<std::size_t>(i), static_cast<std::size_t>(i), 2.0);
    if (i > 0) t.add(static_cast<std::size_t>(i), static_cast<std::size_t>(i - 1), -1.0);
    if (i + 1 < n) t.add(static_cast<std::size_t>(i), static_cast<std::size_t>(i + 1), -1.0);
  }
  rhs[static_cast<std::size_t>(n - 1)] = 1.0;  // right boundary at 1 V
  const auto r = conjugate_gradient(SparseMatrix(t), rhs);
  ASSERT_TRUE(r.converged);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(r.x[static_cast<std::size_t>(i)], (i + 1) / 50.0, 1e-8);
  }
}

TEST(Cg, WarmStartReducesIterations) {
  const int n = 60;
  TripletList t(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  Vector rhs(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    t.add(static_cast<std::size_t>(i), static_cast<std::size_t>(i), 2.1);
    if (i > 0) t.add(static_cast<std::size_t>(i), static_cast<std::size_t>(i - 1), -1.0);
    if (i + 1 < n) t.add(static_cast<std::size_t>(i), static_cast<std::size_t>(i + 1), -1.0);
    rhs[static_cast<std::size_t>(i)] = 1.0;
  }
  const SparseMatrix a(t);
  const auto cold = conjugate_gradient(a, rhs);
  ASSERT_TRUE(cold.converged);
  const auto warm = conjugate_gradient(a, rhs, cold.x);
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, 2);
}

// The Jacobi-CG loop as it read before its iteration was fused into three
// passes: one textbook step per pass. Oracle for the bitwise test below.
ftl::linalg::CgResult textbook_cg(const SparseMatrix& a, const Vector& b,
                                  const Vector& initial,
                                  const ftl::linalg::CgOptions& options = {}) {
  using ftl::linalg::dot;
  using ftl::linalg::norm2;
  const std::size_t n = b.size();

  ftl::linalg::CgResult result;
  result.x = initial.empty() ? Vector(n, 0.0) : initial;

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    result.x.assign(n, 0.0);
    result.converged = true;
    return result;
  }

  Vector inv_diag = a.diagonal();
  for (double& d : inv_diag) d = (d != 0.0) ? 1.0 / d : 1.0;

  Vector r = b;
  {
    const Vector ax = a.multiply(result.x);
    for (std::size_t i = 0; i < n; ++i) r[i] -= ax[i];
  }
  Vector z(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
  Vector p = z;
  double rz = dot(r, z);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    const Vector ap = a.multiply(p);
    const double pap = dot(p, ap);
    if (pap <= 0.0) break;  // not SPD (or breakdown) — report non-convergence
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < n; ++i) {
      result.x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double rnorm = norm2(r);
    result.relative_residual = rnorm / bnorm;
    if (result.relative_residual < options.tolerance) {
      result.converged = true;
      return result;
    }
    for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return result;
}

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// A side x side grid Laplacian whose edge cells also tie to a Dirichlet
// rim, one unit conductance per missing neighbour: the left rim at a high
// potential, the rest at a low one. Like the TCAD solver's u-space system,
// it is well conditioned yet takes CG dozens of iterations.
void grid_system(int side, SparseMatrix& a, Vector& b) {
  const auto at = [side](int x, int y) { return static_cast<std::size_t>(y * side + x); };
  const auto n = static_cast<std::size_t>(side * side);
  TripletList t(n, n);
  b.assign(n, 0.0);
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      const std::size_t i = at(x, y);
      t.add(i, i, 4.0);
      const int neighbours[4][2] = {{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}};
      for (const auto& [nx, ny] : neighbours) {
        if (nx >= 0 && nx < side && ny >= 0 && ny < side) {
          t.add(i, at(nx, ny), -1.0);
        } else {
          b[i] += nx < 0 ? 3.7e-4 : 1.3e-6;
        }
      }
    }
  }
  a = SparseMatrix(t);
}

TEST(Cg, FusedIterationMatchesTextbookLoopBitwise) {
  const auto expect_same = [](const SparseMatrix& a, const Vector& b,
                              const Vector& initial, const char* what) {
    const auto fused = conjugate_gradient(a, b, initial);
    const auto oracle = textbook_cg(a, b, initial);
    EXPECT_TRUE(same_bits(fused.x, oracle.x)) << what;
    EXPECT_EQ(fused.iterations, oracle.iterations) << what;
    EXPECT_EQ(fused.relative_residual, oracle.relative_residual) << what;
    EXPECT_EQ(fused.converged, oracle.converged) << what;
  };

  SparseMatrix grid;
  Vector b;
  grid_system(20, grid, b);
  const auto cold = conjugate_gradient(grid, b);
  ASSERT_TRUE(cold.converged);
  ASSERT_GT(cold.iterations, 30);
  expect_same(grid, b, {}, "grid, cold");
  // Warm start from a perturbed solution, as the TCAD block passes do.
  Vector warm = cold.x;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    warm[i] *= 1.0 + 1e-3 * std::sin(static_cast<double>(i));
  }
  expect_same(grid, b, warm, "grid, warm");

  for (const int n : {3, 17, 64, 150}) {
    std::mt19937 rng(static_cast<unsigned>(n) * 7 + 3);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    // Sparse SPD: random symmetric off-diagonals, diagonally dominant.
    TripletList t(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
    Vector diag(static_cast<std::size_t>(n), 1.0);
    for (int k = 0; k < 3 * n; ++k) {
      const auto i = static_cast<std::size_t>(rng() % static_cast<unsigned>(n));
      const auto j = static_cast<std::size_t>(rng() % static_cast<unsigned>(n));
      if (i == j) continue;
      const double v = dist(rng);
      t.add(i, j, v);
      t.add(j, i, v);
      diag[i] += std::fabs(v);
      diag[j] += std::fabs(v);
    }
    Vector rhs(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < rhs.size(); ++i) {
      t.add(i, i, diag[i] * (1.0 + 0.5 * std::fabs(dist(rng))));
      rhs[i] = dist(rng);
    }
    const SparseMatrix a(t);
    expect_same(a, rhs, {}, "random SPD, cold");
    Vector start(static_cast<std::size_t>(n));
    for (double& x : start) x = dist(rng);
    expect_same(a, rhs, start, "random SPD, warm");
  }
}

}  // namespace
