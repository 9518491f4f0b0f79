// Cost of certification, measured on the two workloads that certify.
//
// CEGAR rows: the synthesis family run twice, once plain and once with LRAT
// logging, where every learnt clause is checked on arrival from its hints
// by the solver's own incremental checker and every infeasibility verdict
// adds one final hinted step.
//
// Audit row: seeded random 3x3, 3-variable lattices drawn like the
// benchmark's certified lint lines (each cell a constant with probability
// 0.1, else a random literal), run through check::audit_lattice_sat plain
// and certified. Each audit makes dozens of assumption queries on shared
// solvers, which is where a checker that replays the whole log per verdict
// paid again for every earlier query.
//
// Built-in gates decide the exit code:
//  - verdict parity: certification must never change feasible/infeasible,
//    and the audit reports must be identical;
//  - every UNSAT verdict under certify must carry a proof the checker
//    accepted, with 0 proof failures;
//  - overhead: per CEGAR row, certified wall-clock <= 2x the plain run plus
//    a fixed slack (short runs are timer noise, the slack absorbs it); on
//    the audit row, certified <= 1.3x plain (full mode only), best of three
//    interleaved passes each.
//
//   bench_sat_proof [out.json] [--quick]
//
// --quick drops the slowest CEGAR rows (6-variable wall, 8-variable
// headline) and audits 40 lattices once, without the audit ratio gate, so
// the CI smoke finishes in seconds; every other gate still runs.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "ftl/check/lattice_sat.hpp"
#include "ftl/lattice/function.hpp"
#include "ftl/lattice/lattice.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/logic/truth_table.hpp"
#include "ftl/util/table.hpp"

namespace {

using ftl::lattice::CellValue;
using ftl::lattice::Lattice;
using ftl::lattice::SatSynthesisOptions;
using ftl::lattice::SatSynthesisResult;
using ftl::logic::TruthTable;
using Clock = std::chrono::steady_clock;

// Timer noise floor: sub-10ms rows can "double" on scheduler jitter alone.
constexpr double kOverheadFactor = 2.0;
constexpr double kOverheadSlackS = 0.25;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

TruthTable parity(int num_vars) {
  return TruthTable::from_function(num_vars, [](std::uint64_t m) {
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

struct ProofRow {
  std::string name;
  double plain_s = 0.0;
  double certified_s = 0.0;
  double proof_check_ms = 0.0;
  std::uint64_t learned_clauses = 0;
  bool found = false;
  bool infeasible = false;
  bool proof_valid = false;
  bool ok = true;
};

ProofRow run_row(const std::string& name, const TruthTable& target, int rows,
                 int cols) {
  ProofRow row;
  row.name = name;

  auto start = Clock::now();
  const SatSynthesisResult plain =
      ftl::lattice::synth_sat(target, rows, cols);
  row.plain_s = seconds_since(start);

  SatSynthesisOptions options;
  options.certify = true;
  start = Clock::now();
  const SatSynthesisResult certified =
      ftl::lattice::synth_sat(target, rows, cols, options);
  row.certified_s = seconds_since(start);

  row.found = certified.lattice.has_value();
  row.infeasible = certified.proven_infeasible;
  row.proof_valid = certified.proof_valid;
  row.proof_check_ms = certified.proof_check_ms;
  row.learned_clauses = certified.solver.learned_clauses;

  if (plain.lattice.has_value() != certified.lattice.has_value() ||
      plain.proven_infeasible != certified.proven_infeasible) {
    std::fprintf(stderr, "FAIL: %s: certification changed the verdict\n",
                 name.c_str());
    row.ok = false;
  }
  if (certified.lattice &&
      !ftl::lattice::realizes(*certified.lattice, target)) {
    std::fprintf(stderr, "FAIL: %s: certified lattice does not realize\n",
                 name.c_str());
    row.ok = false;
  }
  if (certified.proven_infeasible &&
      !(certified.proof_checked && certified.proof_valid)) {
    std::fprintf(stderr, "FAIL: %s: UNSAT verdict without a valid proof\n",
                 name.c_str());
    row.ok = false;
  }
  if (row.certified_s >
      kOverheadFactor * row.plain_s + kOverheadSlackS) {
    std::fprintf(stderr,
                 "FAIL: %s: certified %.3fs exceeds %.0fx plain %.3fs + %.2fs\n",
                 name.c_str(), row.certified_s, kOverheadFactor, row.plain_s,
                 kOverheadSlackS);
    row.ok = false;
  }
  return row;
}

constexpr double kAuditRatio = 1.3;
constexpr int kAuditPasses = 3;

/// A 3x3, 3-variable lattice like a certified lint line's: each cell is a
/// constant with probability 0.1, else a literal of a random variable.
Lattice lint_lattice(std::mt19937_64& rng) {
  Lattice lat(3, 3, 3);
  std::bernoulli_distribution constant(0.1);
  std::bernoulli_distribution coin(0.5);
  std::uniform_int_distribution<int> var(0, 2);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      if (constant(rng)) {
        lat.set(r, c, coin(rng) ? CellValue::one() : CellValue::zero());
      } else {
        lat.set(r, c, CellValue::of(var(rng), coin(rng)));
      }
    }
  }
  return lat;
}

struct AuditRow {
  int lattices = 0;
  double plain_s = 0.0;      ///< best pass
  double certified_s = 0.0;  ///< best pass
  int unsat_verdicts = 0;
  int certified_unsat = 0;
  int proof_failures = 0;
  double proof_check_ms = 0.0;
  bool ok = true;
};

/// Audits every lattice, returning the wall-clock of the pass; the first
/// pass also keeps the audits for the parity and proof gates.
double audit_pass(const std::vector<Lattice>& lattices, bool certify,
                  std::vector<ftl::check::LatticeSatAudit>* keep) {
  ftl::check::LatticeSatAuditOptions options;
  options.certify = certify;
  const auto start = Clock::now();
  for (const Lattice& lat : lattices) {
    ftl::check::LatticeSatAudit audit =
        ftl::check::audit_lattice_sat(lat, options);
    if (keep != nullptr) keep->push_back(std::move(audit));
  }
  return seconds_since(start);
}

AuditRow run_audit_row(int count, int passes, bool gate_ratio) {
  AuditRow row;
  row.lattices = count;
  std::mt19937_64 rng(1);
  std::vector<Lattice> lattices;
  for (int i = 0; i < count; ++i) lattices.push_back(lint_lattice(rng));

  std::vector<ftl::check::LatticeSatAudit> plain;
  std::vector<ftl::check::LatticeSatAudit> certified;
  row.plain_s = audit_pass(lattices, false, &plain);
  row.certified_s = audit_pass(lattices, true, &certified);
  for (int pass = 1; pass < passes; ++pass) {
    row.plain_s = std::min(row.plain_s, audit_pass(lattices, false, nullptr));
    row.certified_s =
        std::min(row.certified_s, audit_pass(lattices, true, nullptr));
  }

  int mismatched = 0;
  for (int i = 0; i < count; ++i) {
    const auto k = static_cast<std::size_t>(i);
    if (plain[k].report.render_json() != certified[k].report.render_json() ||
        plain[k].unsat_verdicts != certified[k].unsat_verdicts) {
      ++mismatched;
    }
    row.unsat_verdicts += certified[k].unsat_verdicts;
    row.certified_unsat += certified[k].certified_unsat;
    row.proof_failures += certified[k].proof_failures;
    row.proof_check_ms += certified[k].proof_check_ms;
  }
  if (mismatched != 0) {
    std::fprintf(stderr,
                 "FAIL: audit: %d of %d reports changed under certify\n",
                 mismatched, count);
    row.ok = false;
  }
  if (row.proof_failures != 0 || row.certified_unsat != row.unsat_verdicts) {
    std::fprintf(stderr,
                 "FAIL: audit: %d of %d UNSAT verdicts certified, %d proof "
                 "failures\n",
                 row.certified_unsat, row.unsat_verdicts, row.proof_failures);
    row.ok = false;
  }
  if (gate_ratio && row.certified_s > kAuditRatio * row.plain_s) {
    std::fprintf(stderr,
                 "FAIL: audit: certified %.3fs exceeds %.1fx plain %.3fs\n",
                 row.certified_s, kAuditRatio, row.plain_s);
    row.ok = false;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_pr9.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      out_path = arg;
    }
  }

  // Feasible and infeasible rows in one family: the UNSAT rows are where
  // the checker actually runs (a found lattice is its own certificate).
  std::vector<ProofRow> rows;
  rows.push_back(run_row("maj3 2x2 (UNSAT)", majority3(), 2, 2));
  rows.push_back(run_row("xor3 2x2 (UNSAT)", parity(3), 2, 2));
  rows.push_back(run_row("xor3 2x3 (UNSAT)", parity(3), 2, 3));
  rows.push_back(run_row("maj3 2x3", majority3(), 2, 3));
  rows.push_back(run_row("xor3 3x3", parity(3), 3, 3));
  rows.push_back(run_row("2x2-or 2x3", pairwise_or(4), 2, 3));
  if (!quick) {
    rows.push_back(run_row("3x2x2-or 4x5 (6var)", pairwise_or(6), 4, 5));
    rows.push_back(run_row("4x2x2-or 5x5 (8var)", pairwise_or(8), 5, 5));
  }

  const AuditRow audit = quick ? run_audit_row(40, 1, false)
                               : run_audit_row(200, kAuditPasses, true);

  bool ok = audit.ok;
  for (const ProofRow& row : rows) ok = ok && row.ok;

  const auto fmt = [](const char* spec, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, spec, value);
    return std::string(buf);
  };
  ftl::util::ConsoleTable table(
      {"target", "plain", "certified", "check", "verdict"});
  for (const ProofRow& row : rows) {
    table.add_row(
        {row.name, fmt("%.1f ms", row.plain_s * 1e3),
         fmt("%.1f ms", row.certified_s * 1e3),
         row.infeasible ? fmt("%.2f ms", row.proof_check_ms) : "-",
         row.found ? "found"
                   : (row.infeasible
                          ? (row.proof_valid ? "UNSAT (proof checked)"
                                             : "UNSAT (PROOF INVALID)")
                          : "?")});
  }
  table.add_row(
      {"audit " + std::to_string(audit.lattices) + " lint lattices",
       fmt("%.1f ms", audit.plain_s * 1e3),
       fmt("%.1f ms", audit.certified_s * 1e3),
       fmt("%.2f ms", audit.proof_check_ms),
       std::to_string(audit.certified_unsat) + "/" +
           std::to_string(audit.unsat_verdicts) + " UNSAT checked"});
  std::printf("%s", table.render().c_str());
  std::printf("audit certified/plain: %.2fx (gate %.1fx%s)\n",
              audit.certified_s / audit.plain_s, kAuditRatio,
              quick ? ", not applied in --quick" : "");

  std::ofstream file(out_path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  file << "{\"bench\":\"sat_proof\",\"quick\":" << (quick ? "true" : "false")
       << ",\"overhead_gate\":{\"factor\":" << kOverheadFactor
       << ",\"slack_s\":" << kOverheadSlackS << "},\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ProofRow& row = rows[i];
    if (i != 0) file << ",";
    file << "{\"target\":\"" << row.name << "\""
         << ",\"plain_ms\":" << row.plain_s * 1e3
         << ",\"certified_ms\":" << row.certified_s * 1e3
         << ",\"found\":" << (row.found ? "true" : "false")
         << ",\"infeasible\":" << (row.infeasible ? "true" : "false")
         << ",\"proof_valid\":" << (row.proof_valid ? "true" : "false")
         << ",\"proof_check_ms\":" << row.proof_check_ms
         << ",\"learned_clauses\":" << row.learned_clauses << "}";
  }
  file << "],\"audit\":{\"lattices\":" << audit.lattices
       << ",\"plain_ms\":" << audit.plain_s * 1e3
       << ",\"certified_ms\":" << audit.certified_s * 1e3
       << ",\"ratio_gate\":" << kAuditRatio
       << ",\"unsat_verdicts\":" << audit.unsat_verdicts
       << ",\"certified_unsat\":" << audit.certified_unsat
       << ",\"proof_failures\":" << audit.proof_failures
       << ",\"proof_check_ms\":" << audit.proof_check_ms << "}}" << '\n';
  std::printf("wrote %s\n", out_path.c_str());

  return ok ? 0 : 1;
}
