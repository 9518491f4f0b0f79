// Fig. 3 reproduction: XOR3 realized on a 3x4 lattice and on the
// minimum-size 3x3 lattice. The bench re-verifies the shipped mappings,
// re-derives the baseline Altun-Riedel lattice (4x4), and proves with
// LRAT-checked SAT that no lattice with fewer than 9 cells realizes XOR3 —
// establishing 3x3 as the minimum, as the paper states. Exits nonzero
// unless every smaller shape is proven infeasible.
#include <cstdio>

#include "ftl/lattice/function.hpp"
#include "ftl/lattice/known_mappings.hpp"
#include "ftl/lattice/synthesis.hpp"

int main() {
  using namespace ftl::lattice;
  const auto xor3 = xor3_truth_table();

  std::printf("== Fig. 3: XOR3 = a^b^c on switching lattices ==\n\n");

  const Lattice l34 = xor3_lattice_3x4();
  std::printf("Fig. 3a (3x4, 12 switches) — realizes XOR3: %s\n%s\n",
              realizes(l34, xor3) ? "yes" : "NO",
              l34.to_string().c_str());

  const Lattice l33 = xor3_lattice_3x3();
  std::printf("Fig. 3b (3x3, 9 switches, minimum) — realizes XOR3: %s\n%s\n",
              realizes(l33, xor3) ? "yes" : "NO",
              l33.to_string().c_str());

  const Lattice ar = altun_riedel_synthesis(xor3, {"a", "b", "c"});
  std::printf("Baseline Altun-Riedel construction: %dx%d (%d switches)"
              " — realizes XOR3: %s\n%s\n",
              ar.rows(), ar.cols(), ar.cell_count(),
              realizes(ar, xor3) ? "yes" : "NO", ar.to_string().c_str());

  // Every shape of 1..9 cells in ascending order, each UNSAT verdict
  // backed by an LRAT proof the embedded checker accepted.
  std::printf("Minimality proof by the SAT shape ladder (literals + constants"
              " per cell, LRAT-checked):\n");
  SatSynthesisOptions certified;
  certified.certify = true;
  const SmallestLatticeResult ladder =
      smallest_lattice(xor3, 9, certified, {"a", "b", "c"});
  int below_nine = 0;
  for (const ShapeAttempt& a : ladder.attempts) {
    const int cells = a.rows * a.cols;
    if (cells < 9) ++below_nine;
    const char* verdict = a.sat.lattice ? "realizable"
                          : !a.sat.proven_infeasible ? "UNDECIDED (budget)"
                          : a.sat.proof_valid ? "impossible (proof checked)"
                                              : "impossible (PROOF REJECTED)";
    std::printf("  %dx%d (%2d cells): %s\n", a.rows, a.cols, cells, verdict);
  }
  const bool minimal = ladder.lattice.has_value() &&
                       ladder.lattice->cell_count() == 9 &&
                       ladder.proven_minimal;
  if (minimal) {
    std::printf("  => all %d shapes below 9 cells are infeasible; 9 switches"
                " (%dx%d) is the minimum, matching the paper.\n%s\n",
                below_nine, ladder.lattice->rows(), ladder.lattice->cols(),
                ladder.lattice->to_string().c_str());
  } else {
    std::printf("  => MINIMALITY NOT PROVEN\n");
  }

  const bool ok = realizes(l34, xor3) && realizes(l33, xor3) &&
                  realizes(ar, xor3) && minimal;
  return ok ? 0 : 1;
}
