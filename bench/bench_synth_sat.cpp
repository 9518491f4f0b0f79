// CEGAR SAT synthesis timings, plus the headline the SAT core exists for:
// 5x5 lattices for 8-variable functions.
//
// Two sections, each with built-in correctness gates:
//  1. Small shapes — feasible and infeasible 3-6 variable targets; every
//     run must reach its known verdict (a lattice or a proof of
//     infeasibility), and every found lattice must realize its target
//     (bitslice-verified). A zero-budget CEGAR run must report
//     budget_exhausted rather than pretend. Agreement with an independent
//     complete search lives in the test suite (test_sat_synthesis).
//  2. Headline — 8-variable functions on 5x5: a structured 4-way AND-OR
//     and (full mode) a random-lattice-derived function depending on all
//     8 variables.
//
//   bench_synth_sat [out.json] [--quick]
//
// --quick drops the random-function headline so the CI smoke finishes in
// seconds; every correctness gate still runs and still decides the exit
// code.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "ftl/lattice/function.hpp"
#include "ftl/lattice/lattice.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/logic/truth_table.hpp"
#include "ftl/util/table.hpp"

namespace {

using ftl::lattice::CellValue;
using ftl::lattice::Lattice;
using ftl::logic::TruthTable;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
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

TruthTable parity3() {
  return TruthTable::from_function(3, [](std::uint64_t m) {
    return (__builtin_popcountll(m) & 1) != 0;
  });
}

TruthTable majority3() {
  return TruthTable::from_function(
      3, [](std::uint64_t m) { return __builtin_popcountll(m) >= 2; });
}

/// OR of adjacent-variable ANDs: x0 x1 + x2 x3 + ... over `num_vars` vars.
TruthTable pairwise_or(int num_vars) {
  return TruthTable::from_function(num_vars, [num_vars](std::uint64_t m) {
    for (int v = 0; v + 1 < num_vars; v += 2) {
      if (((m >> v) & 1) != 0 && ((m >> (v + 1)) & 1) != 0) return true;
    }
    return false;
  });
}

struct SmallRow {
  std::string name;
  double sat_s = 0.0;
  bool found = false;
  bool infeasible = false;
  std::uint64_t conflicts = 0;
  bool ok = true;
};

SmallRow run_small(const std::string& name, const TruthTable& target,
                   int rows, int cols, bool feasible) {
  SmallRow row;
  row.name = name;
  const auto start = Clock::now();
  const ftl::lattice::SatSynthesisResult sat =
      ftl::lattice::synth_sat(target, rows, cols);
  row.sat_s = seconds_since(start);
  row.found = sat.lattice.has_value();
  row.infeasible = sat.proven_infeasible;
  row.conflicts = sat.solver.conflicts;
  if (!row.found && !row.infeasible) {
    std::fprintf(stderr, "FAIL: %s: no lattice but SAT did not prove UNSAT\n",
                 name.c_str());
    row.ok = false;
  } else if (row.found != feasible) {
    std::fprintf(stderr, "FAIL: %s: expected %s\n", name.c_str(),
                 feasible ? "a lattice" : "a proof of infeasibility");
    row.ok = false;
  }
  if (sat.lattice && !ftl::lattice::realizes(*sat.lattice, target)) {
    std::fprintf(stderr, "FAIL: %s: SAT lattice does not realize\n",
                 name.c_str());
    row.ok = false;
  }
  return row;
}

struct HeadlineRow {
  std::string name;
  double sat_s = 0.0;
  int cegar_rounds = 0;
  int care_minterms = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  bool ok = true;
};

HeadlineRow run_headline(const std::string& name, const TruthTable& target,
                         int rows, int cols) {
  HeadlineRow row;
  row.name = name;
  const auto start = Clock::now();
  const ftl::lattice::SatSynthesisResult sat =
      ftl::lattice::synth_sat(target, rows, cols);
  row.sat_s = seconds_since(start);
  row.cegar_rounds = sat.cegar_rounds;
  row.care_minterms = sat.care_minterms;
  row.conflicts = sat.solver.conflicts;
  row.propagations = sat.solver.propagations;
  if (!sat.lattice) {
    std::fprintf(stderr, "FAIL: %s: synth_sat found no lattice\n",
                 name.c_str());
    row.ok = false;
  } else if (!ftl::lattice::realizes(*sat.lattice, target)) {
    std::fprintf(stderr, "FAIL: %s: SAT lattice does not realize\n",
                 name.c_str());
    row.ok = false;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_pr7.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      out_path = arg;
    }
  }

  bool ok = true;

  // --- 1. small shapes ----------------------------------------------------
  std::vector<SmallRow> small;
  small.push_back(run_small("maj3 2x2 (UNSAT)", majority3(), 2, 2, false));
  small.push_back(run_small("maj3 2x3", majority3(), 2, 3, true));
  small.push_back(run_small("xor3 2x3 (UNSAT)", parity3(), 2, 3, false));
  small.push_back(run_small("2x2-or 2x3", pairwise_or(4), 2, 3, true));
  small.push_back(run_small("xor3 3x3", parity3(), 3, 3, true));
  small.push_back(run_small("2x2x2-or 4x5 (6var)", pairwise_or(6), 4, 5, true));
  for (const SmallRow& row : small) ok = ok && row.ok;

  // A zero conflict budget must surface as an explicit refusal.
  {
    ftl::lattice::SatSynthesisOptions options;
    options.max_conflicts = 0;
    const ftl::lattice::SatSynthesisResult starved =
        ftl::lattice::synth_sat(pairwise_or(4), 3, 3, options);
    if (!starved.budget_exhausted || starved.lattice) {
      std::fprintf(stderr, "FAIL: zero budget not reported as exhausted\n");
      ok = false;
    }
  }

  // --- 2. headline: 8 variables on 5x5 ------------------------------------
  std::vector<HeadlineRow> headline;
  headline.push_back(
      run_headline("5x5/8var structured", pairwise_or(8), 5, 5));
  if (!quick) {
    // A function drawn from a random 5x5 literal lattice: irregular
    // structure, all 8 variables live, and far harder for CEGAR than the
    // structured target (the care set grows past 100 minterms).
    const TruthTable random_target =
        ftl::lattice::realized_truth_table(random_lattice(5, 5, 8, 1));
    for (int v = 0; v < 8; ++v) {
      if (!random_target.depends_on(v)) {
        std::fprintf(stderr, "FAIL: random target independent of var %d\n", v);
        ok = false;
      }
    }
    headline.push_back(
        run_headline("5x5/8var random-lattice", random_target, 5, 5));
  }
  for (const HeadlineRow& row : headline) ok = ok && row.ok;

  // --- report --------------------------------------------------------------
  const auto fmt = [](const char* spec, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, spec, value);
    return std::string(buf);
  };
  ftl::util::ConsoleTable table({"target", "synth_sat", "outcome"});
  for (const SmallRow& row : small) {
    table.add_row({row.name, fmt("%.1f ms", row.sat_s * 1e3),
                   row.found ? "found" : (row.infeasible ? "UNSAT" : "?")});
  }
  for (const HeadlineRow& row : headline) {
    char note[96];
    std::snprintf(note, sizeof note, "%d rounds, %d minterms, %llu conflicts",
                  row.cegar_rounds, row.care_minterms,
                  static_cast<unsigned long long>(row.conflicts));
    table.add_row({row.name, fmt("%.2f s", row.sat_s), note});
  }
  std::printf("%s", table.render().c_str());

  std::ofstream file(out_path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  file << "{\"bench\":\"synth_sat\",\"quick\":" << (quick ? "true" : "false")
       << ",\"small\":[";
  for (std::size_t i = 0; i < small.size(); ++i) {
    const SmallRow& row = small[i];
    if (i != 0) file << ",";
    file << "{\"target\":\"" << row.name << "\""
         << ",\"sat_ms\":" << row.sat_s * 1e3
         << ",\"found\":" << (row.found ? "true" : "false")
         << ",\"conflicts\":" << row.conflicts << "}";
  }
  file << "],\"headline\":[";
  for (std::size_t i = 0; i < headline.size(); ++i) {
    const HeadlineRow& row = headline[i];
    if (i != 0) file << ",";
    file << "{\"target\":\"" << row.name << "\""
         << ",\"sat_s\":" << row.sat_s
         << ",\"cegar_rounds\":" << row.cegar_rounds
         << ",\"care_minterms\":" << row.care_minterms
         << ",\"conflicts\":" << row.conflicts
         << ",\"propagations\":" << row.propagations << "}";
  }
  file << "]}" << '\n';
  std::printf("wrote %s\n", out_path.c_str());

  return ok ? 0 : 1;
}
