// Synthesize an arbitrary Boolean expression onto a switching lattice from
// the command line, optionally hunting for the smallest realization with
// the SAT shape ladder.
//
// Usage: synthesize_function ["expression"] [--search] [--sat RxC]
//   expression  e.g. "a b' + c (a + b)"   (default: XOR3)
//   --search    also search every smaller shape (up to 20 cells) for the
//               smallest lattice, proving the shapes below it infeasible
//   --sat RxC   CEGAR SAT synthesis onto an RxC lattice (e.g. --sat 5x5)
//   --seed N    decision seed for the SAT search (default 1)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ftl/lattice/function.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/logic/expr_parser.hpp"
#include "ftl/logic/isop.hpp"
#include "ftl/util/error.hpp"

int main(int argc, char** argv) {
  using namespace ftl;

  std::string expression = "a b c + a b' c' + a' b c' + a' b' c";
  bool search = false;
  int sat_rows = 0;
  int sat_cols = 0;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--search") == 0) {
      search = true;
    } else if (std::strcmp(argv[i], "--sat") == 0 && i + 1 < argc) {
      if (std::sscanf(argv[++i], "%dx%d", &sat_rows, &sat_cols) != 2 ||
          sat_rows < 1 || sat_cols < 1 || sat_rows * sat_cols > 64) {
        std::fprintf(stderr, "error: --sat wants RxC with 1..64 cells\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      expression = argv[i];
    }
  }

  logic::ParsedFunction parsed;
  try {
    parsed = logic::parse_expression(expression);
  } catch (const ftl::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("expression: %s\n", expression.c_str());
  std::printf("ISOP: %s\n",
              logic::isop(parsed.table).to_string(parsed.var_names).c_str());
  std::printf("dual ISOP: %s\n\n",
              logic::isop_of_dual(parsed.table).to_string(parsed.var_names).c_str());

  if (sat_rows > 0) {
    lattice::SatSynthesisOptions options;
    options.seed = seed;
    const lattice::SatSynthesisResult result = lattice::synth_sat(
        parsed.table, sat_rows, sat_cols, options, parsed.var_names);
    if (result.lattice) {
      std::printf("SAT lattice (%dx%d, seed %llu):\n%s\n", sat_rows, sat_cols,
                  static_cast<unsigned long long>(result.seed),
                  result.lattice->to_string().c_str());
      std::printf("verified: %s\n",
                  lattice::realizes(*result.lattice, parsed.table) ? "yes"
                                                                   : "NO");
    } else if (result.proven_infeasible) {
      std::printf("UNSAT: no %dx%d lattice realizes this function.\n",
                  sat_rows, sat_cols);
    } else {
      std::printf("budget exhausted after %llu conflicts; raise it or "
                  "try another seed.\n",
                  static_cast<unsigned long long>(result.solver.conflicts));
    }
    std::printf(
        "CEGAR: %d rounds, %d care minterms; solver: %llu conflicts, "
        "%llu propagations, %llu restarts\n",
        result.cegar_rounds, result.care_minterms,
        static_cast<unsigned long long>(result.solver.conflicts),
        static_cast<unsigned long long>(result.solver.propagations),
        static_cast<unsigned long long>(result.solver.restarts));
    return result.lattice || result.proven_infeasible ? 0 : 1;
  }

  const lattice::Lattice lat =
      lattice::altun_riedel_synthesis(parsed.table, parsed.var_names);
  std::printf("Altun-Riedel lattice (%dx%d, %d switches):\n%s\n", lat.rows(),
              lat.cols(), lat.cell_count(), lat.to_string().c_str());
  std::printf("verified: %s\n",
              lattice::realizes(lat, parsed.table) ? "yes" : "NO");

  if (search && lat.cell_count() > 1) {
    std::printf("\nsearching for smaller lattices...\n");
    lattice::SatSynthesisOptions options;
    options.seed = seed;
    const int max_cells = std::min(lat.cell_count() - 1, 20);
    const lattice::SmallestLatticeResult smaller = lattice::smallest_lattice(
        parsed.table, max_cells, options, parsed.var_names);
    if (smaller.lattice) {
      const lattice::Lattice& found = *smaller.lattice;
      std::printf("found %dx%d (%d switches, %s):\n%s\n", found.rows(),
                  found.cols(), found.cell_count(),
                  smaller.proven_minimal ? "proven minimal"
                                         : "not proven minimal",
                  found.to_string().c_str());
    } else if (smaller.proven_minimal) {
      std::printf("no lattice of %d or fewer switches realizes it.\n",
                  max_cells);
    } else {
      std::printf("no smaller lattice found within the search budget.\n");
    }
  }
  return 0;
}
