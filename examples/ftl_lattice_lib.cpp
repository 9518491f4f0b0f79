// ftl_lattice_lib — build, inspect, and query an on-disk NPN lattice
// library (the store behind the serve daemon's --library-dir flag).
//
//   ftl_lattice_lib build  LIB_DIR [--sat] [--no-curated] [--seed S]
//   ftl_lattice_lib stats  LIB_DIR
//   ftl_lattice_lib verify LIB_DIR [--certify] [--sample N] [--conflicts C]
//   ftl_lattice_lib lookup LIB_DIR "a b + c d" [--vars a,b,c,d]
//
// `build` precomputes every 4-variable NPN class (plus the curated 5-6
// variable set) through the synthesis engines; `verify` re-checks every
// stored lattice against its class table and exits non-zero on any
// mismatch, so a library directory can be audited after manual edits or
// partial writes. With --certify, each audited entry is additionally proven
// correct by an LRAT-checked SAT equivalence AND shape-minimal by walking
// the lattice::smallest_lattice ladder with certified infeasibility at
// every smaller shape; entries that pass get their `certified` bit stamped
// into the on-disk record. Budget exhaustion leaves an entry unproven (not
// an error), as does a size above the SAT encoding's 64-cell ceiling; a
// rejected proof is an error.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ftl/check/equivalence.hpp"
#include "ftl/jobs/digest.hpp"
#include "ftl/lattice/function.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/library/npn.hpp"
#include "ftl/library/precompute.hpp"
#include "ftl/library/store.hpp"
#include "ftl/library/synthesize.hpp"
#include "ftl/logic/expr_parser.hpp"
#include "ftl/util/error.hpp"
#include "ftl/util/strings.hpp"

namespace {

void print_usage() {
  std::printf(
      "usage: ftl_lattice_lib <command> LIB_DIR [options]\n"
      "  build  LIB_DIR [--sat] [--no-curated] [--seed S] [--threads N]\n"
      "         precompute NPN classes into the library (idempotent)\n"
      "  stats  LIB_DIR\n"
      "         class/entry counts and per-engine provenance\n"
      "  verify LIB_DIR [--certify] [--sample N] [--conflicts C]\n"
      "         re-verify every stored lattice; exit 1 on any mismatch.\n"
      "         --certify: prove correctness (LRAT-checked SAT equivalence)\n"
      "         and shape-minimality per entry, stamping the certified bit;\n"
      "         --sample N certifies only the first N entries (key order)\n"
      "  lookup LIB_DIR EXPR [--vars a,b,c]\n"
      "         resolve EXPR through the library (no engine fallback)\n");
}

int cmd_build(ftl::library::LatticeLibrary& lib, int argc, char** argv) {
  ftl::library::PrecomputeOptions options;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sat") == 0) {
      options.effort = ftl::library::PrecomputeOptions::Effort::kSat;
    } else if (std::strcmp(argv[i], "--no-curated") == 0) {
      options.curated = false;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      options.seed = static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      options.max_threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "ftl_lattice_lib: unknown build option %s\n", argv[i]);
      return 2;
    }
  }
  const ftl::library::PrecomputeReport report =
      ftl::library::precompute(lib, options);
  std::printf("targets    %zu\npopulated  %zu\nimproved   %zu\nfailures   %zu\n",
              report.targets, report.populated, report.improved,
              report.failures);
  std::printf("classes    %zu\nentries    %zu\nwall       %.1f ms\n",
              lib.num_classes(), lib.num_entries(), report.total_ms);
  return report.failures == 0 ? 0 : 1;
}

int cmd_stats(ftl::library::LatticeLibrary& lib) {
  lib.load_all();
  std::size_t by_vars[7] = {};
  std::size_t cells = 0, entries = 0;
  std::vector<std::pair<std::string, std::size_t>> by_engine;
  const auto count_engine = [&](const std::string& engine) {
    for (auto& [name, n] : by_engine) {
      if (name == engine) {
        ++n;
        return;
      }
    }
    by_engine.emplace_back(engine, 1);
  };
  for (const auto& [key, cls] : lib.snapshot()) {
    ++by_vars[cls.canonical.num_vars() <= 6 ? cls.canonical.num_vars() : 6];
    for (const auto* slot : {&cls.direct, &cls.complement}) {
      if (!slot->has_value()) continue;
      ++entries;
      cells += static_cast<std::size_t>((*slot)->lattice.cell_count());
      count_engine((*slot)->engine);
    }
  }
  std::printf("classes  %zu\nentries  %zu\n", lib.num_classes(), entries);
  for (int n = 0; n <= 6; ++n) {
    if (by_vars[n] != 0) std::printf("  %d-var classes  %zu\n", n, by_vars[n]);
  }
  for (const auto& [engine, n] : by_engine) {
    std::printf("  engine %-12s %zu\n", engine.c_str(), n);
  }
  if (entries != 0) {
    std::printf("mean cells per entry  %.2f\n",
                static_cast<double>(cells) / static_cast<double>(entries));
  }
  return 0;
}

/// One entry's --certify audit: LRAT-checked SAT equivalence, then the
/// smallest_lattice ladder with certified infeasibility at every strictly
/// smaller shape. Outcomes are disjoint; exactly one counter is bumped.
struct CertifyTally {
  std::size_t stamped = 0;      ///< proven correct + minimal, bit written
  std::size_t unproven = 0;     ///< a budget ran out, or over 65 cells
  std::size_t improvable = 0;   ///< a smaller shape realizes the class
  std::size_t proof_failures = 0;  ///< some UNSAT failed the LRAT checker
};

void certify_entry(ftl::library::LatticeLibrary& lib, std::uint64_t key,
                   bool complement, const ftl::library::LibraryEntry& entry,
                   const ftl::logic::TruthTable& want, std::int64_t conflicts,
                   CertifyTally& tally) {
  const char* phase = complement ? "complement" : "direct";
  // Correctness: the SAT miter, with every UNSAT answer checker-approved.
  const ftl::check::EquivalenceVerdict equivalence =
      ftl::check::verify_equivalence_sat(entry.lattice, want,
                                         /*certify=*/true);
  if (!equivalence.realizes || !equivalence.certified) {
    std::printf("PROOF-FAIL %s (%s): equivalence %s\n",
                ftl::jobs::digest_hex(key).c_str(), phase,
                equivalence.realizes ? "proof rejected by the LRAT checker"
                                     : "refuted by the SAT miter");
    ++tally.proof_failures;
    return;
  }
  // Minimality: every shape with fewer cells must be proven infeasible,
  // walking the same ladder the precompute pass minimizes along. SAT
  // encodes at most 64 cells, so a larger entry (the curated 5-6 variable
  // parity and majority lattices) can be shown improvable but never
  // certified minimal.
  constexpr int kMaxSatCells = 64;
  const int smaller_cells = entry.lattice.cell_count() - 1;
  ftl::lattice::SatSynthesisOptions sat;
  sat.certify = true;
  sat.max_conflicts = conflicts;
  const ftl::lattice::SmallestLatticeResult ladder =
      ftl::lattice::smallest_lattice(
          want, std::min(smaller_cells, kMaxSatCells), sat);
  for (const ftl::lattice::ShapeAttempt& attempt : ladder.attempts) {
    if (attempt.sat.proven_infeasible && !attempt.sat.proof_valid) {
      std::printf(
          "PROOF-FAIL %s (%s): %dx%d infeasibility rejected by the LRAT "
          "checker\n",
          ftl::jobs::digest_hex(key).c_str(), phase, attempt.rows,
          attempt.cols);
      ++tally.proof_failures;
      return;
    }
  }
  if (ladder.lattice) {
    std::printf("IMPROVABLE %s (%s): a %dx%d lattice realizes the class\n",
                ftl::jobs::digest_hex(key).c_str(), phase,
                ladder.lattice->rows(), ladder.lattice->cols());
    ++tally.improvable;
  } else if (ladder.proven_minimal && smaller_cells <= kMaxSatCells) {
    lib.stamp_certified(key, complement, true);
    ++tally.stamped;
  } else {
    ++tally.unproven;  // a budget ran out or the ladder stopped at 64 cells
  }
}

int cmd_verify(ftl::library::LatticeLibrary& lib, int argc, char** argv) {
  bool certify = false;
  std::size_t sample = 0;
  std::int64_t conflicts = 50'000;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--certify") == 0) {
      certify = true;
    } else if (std::strcmp(argv[i], "--sample") == 0 && i + 1 < argc) {
      sample = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--conflicts") == 0 && i + 1 < argc) {
      conflicts = static_cast<std::int64_t>(
          std::strtoll(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "ftl_lattice_lib: unknown verify option %s\n",
                   argv[i]);
      return 2;
    }
  }
  lib.load_all();
  std::size_t checked = 0, bad = 0, audited = 0;
  CertifyTally tally;
  for (const auto& [key, cls] : lib.snapshot()) {
    if (ftl::library::npn_key(cls.canonical) != key) {
      std::printf("BAD %s: key does not match stored canonical table\n",
                  ftl::jobs::digest_hex(key).c_str());
      ++bad;
      continue;
    }
    for (const bool complement : {false, true}) {
      const auto& slot = complement ? cls.complement : cls.direct;
      if (!slot) continue;
      ++checked;
      const ftl::logic::TruthTable want =
          complement ? ~cls.canonical : cls.canonical;
      if (!ftl::lattice::realizes(slot->lattice, want)) {
        std::printf("BAD %s (%s): stored lattice does not realize the class\n",
                    ftl::jobs::digest_hex(key).c_str(),
                    complement ? "complement" : "direct");
        ++bad;
        continue;
      }
      if (!certify || cls.canonical.num_vars() < 1) continue;
      if (sample != 0 && audited >= sample) continue;
      ++audited;
      certify_entry(lib, key, complement, *slot, want, conflicts, tally);
    }
  }
  std::printf("verified %zu entries, %zu bad\n", checked, bad);
  if (certify) {
    std::printf(
        "certified %zu of %zu audited (%zu unproven by budget, %zu "
        "improvable, %zu proof failures)\n",
        tally.stamped, audited, tally.unproven, tally.improvable,
        tally.proof_failures);
  }
  return bad == 0 && tally.proof_failures == 0 ? 0 : 1;
}

int cmd_lookup(ftl::library::LatticeLibrary& lib, const std::string& expr,
               int argc, char** argv) {
  std::vector<std::string> vars;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--vars") == 0 && i + 1 < argc) {
      vars = ftl::util::split(argv[++i], ",");
    } else {
      std::fprintf(stderr, "ftl_lattice_lib: unknown lookup option %s\n",
                   argv[i]);
      return 2;
    }
  }
  const ftl::logic::ParsedFunction parsed =
      ftl::logic::parse_expression(expr, vars);
  const ftl::library::NpnCanonical canon =
      ftl::library::canonicalize(parsed.table);
  std::printf("npn_class %s\n",
              ftl::jobs::digest_hex(ftl::library::npn_key(canon.canonical))
                  .c_str());
  const auto hit =
      ftl::library::lookup_only(lib, parsed.table, parsed.var_names);
  if (!hit) {
    std::printf("miss (class not in library)\n");
    return 1;
  }
  std::printf("hit: %dx%d\n%s", hit->rows(), hit->cols(),
              hit->to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    print_usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    ftl::library::LatticeLibrary lib((std::string(argv[2])));
    if (command == "build") return cmd_build(lib, argc - 3, argv + 3);
    if (command == "stats") return cmd_stats(lib);
    if (command == "verify") return cmd_verify(lib, argc - 3, argv + 3);
    if (command == "lookup") {
      if (argc < 4) {
        std::fprintf(stderr, "ftl_lattice_lib: lookup needs an expression\n");
        return 2;
      }
      return cmd_lookup(lib, argv[3], argc - 4, argv + 4);
    }
    std::fprintf(stderr, "ftl_lattice_lib: unknown command '%s'\n",
                 command.c_str());
    print_usage();
    return 2;
  } catch (const ftl::Error& e) {
    std::fprintf(stderr, "ftl_lattice_lib: %s\n", e.what());
    return 1;
  }
}
