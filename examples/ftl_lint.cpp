// ftl_lint — static diagnostics for netlists and lattice mappings.
//
//   ftl_lint deck.cir                  lint SPICE decks (N/P rules)
//   ftl_lint --lattice mapping.json    lint a lattice spec (+ equivalence
//                                      when the spec carries a target)
//   ftl_lint --format json deck.cir    canonical single-line JSON per file
//   ftl_lint -                         read one netlist from stdin
//
// Exit code: 0 = clean, 1 = warnings only, 2 = errors. Notes never affect
// the exit code.
//
// Lattice spec files use the same JSON shape as the ftl_serve lattice ops:
//   {"rows":3,"cols":3,"vars":["a","b","c"],"cells":["a","b'",...],
//    "target":"a' b' c + a' b c' + a b' c' + a b c"}
// or {"expr":"a b + c d"} to synthesize-then-check (literals are
// space-separated: identifiers may be multi-character, so "ab" is one
// variable named ab, not a AND b).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ftl/check/equivalence.hpp"
#include "ftl/check/lattice.hpp"
#include "ftl/check/lattice_sat.hpp"
#include "ftl/check/netlist.hpp"
#include "ftl/logic/expr_parser.hpp"
#include "ftl/serve/service.hpp"
#include "ftl/util/error.hpp"

namespace {

void print_usage() {
  std::printf(
      "usage: ftl_lint [options] <file|-> [more files...]\n"
      "  --lattice      inputs are lattice-spec JSON, not netlists\n"
      "  --equiv B      equivalence backend: 'auto' (default), 'bdd', 'sat'\n"
      "  --certify      (lattice mode) machine-check every UNSAT verdict\n"
      "                 with the embedded LRAT checker and run the certified\n"
      "                 SAT audits (FTL-L006/7/8); output gains a proof field\n"
      "  --format F     'text' (default) or 'json'\n"
      "  --quiet        suppress per-diagnostic output, keep exit code\n"
      "exit code: 0 clean, 1 warnings, 2 errors\n");
}

std::optional<std::string> read_input(const std::string& path) {
  if (path == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    return buf.str();
  }
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

ftl::check::Report lint_lattice_spec(const std::string& text,
                                     const ftl::check::EquivalenceOptions& equiv) {
  const ftl::serve::JsonValue spec = ftl::serve::JsonValue::parse(text);
  const ftl::serve::LatticeSpec parsed = ftl::serve::lattice_spec_from(spec);
  ftl::check::Report report = ftl::check::check_lattice(parsed.lat);
  if (equiv.certify) {
    ftl::check::LatticeSatAuditOptions audit;
    audit.certify = true;
    report.merge(ftl::check::audit_lattice_sat(parsed.lat, audit).report);
  }
  std::optional<ftl::logic::TruthTable> target = parsed.target;
  if (const ftl::serve::JsonValue* t = spec.find("target")) {
    target = ftl::logic::parse_expression(t->as_string(),
                                          parsed.lat.var_names())
                 .table;
  }
  if (target) {
    report.merge(ftl::check::check_equivalence(parsed.lat, *target, equiv));
  }
  return report;
}

bool has_rule(const ftl::check::Report& report, const char* rule) {
  for (const ftl::check::Diagnostic& d : report.diagnostics()) {
    if (d.rule == rule) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool lattice_mode = false;
  bool json_format = false;
  bool quiet = false;
  ftl::check::EquivalenceOptions equiv;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_usage();
      return 0;
    } else if (std::strcmp(arg, "--lattice") == 0) {
      lattice_mode = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(arg, "--certify") == 0) {
      equiv.certify = true;
    } else if (std::strcmp(arg, "--equiv") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ftl_lint: --equiv needs a value\n");
        return 2;
      }
      const char* backend = argv[++i];
      if (std::strcmp(backend, "bdd") == 0) {
        equiv.backend = ftl::check::EquivalenceOptions::Backend::kBdd;
      } else if (std::strcmp(backend, "sat") == 0) {
        equiv.backend = ftl::check::EquivalenceOptions::Backend::kSat;
      } else if (std::strcmp(backend, "auto") != 0) {
        std::fprintf(stderr, "ftl_lint: unknown equiv backend '%s'\n", backend);
        return 2;
      }
    } else if (std::strcmp(arg, "--format") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ftl_lint: --format needs a value\n");
        return 2;
      }
      const char* fmt = argv[++i];
      if (std::strcmp(fmt, "json") == 0) {
        json_format = true;
      } else if (std::strcmp(fmt, "text") != 0) {
        std::fprintf(stderr, "ftl_lint: unknown format '%s'\n", fmt);
        return 2;
      }
    } else if (arg[0] == '-' && std::strcmp(arg, "-") != 0) {
      std::fprintf(stderr, "ftl_lint: unknown option %s\n", arg);
      print_usage();
      return 2;
    } else {
      files.emplace_back(arg);
    }
  }
  if (files.empty()) {
    print_usage();
    return 2;
  }

  int exit_code = 0;
  for (const std::string& path : files) {
    const std::optional<std::string> text = read_input(path);
    if (!text) {
      std::fprintf(stderr, "ftl_lint: cannot open %s\n", path.c_str());
      return 2;
    }
    ftl::check::Report report;
    try {
      report = lattice_mode ? lint_lattice_spec(*text, equiv)
                            : ftl::check::lint_netlist(*text).report;
    } catch (const ftl::Error& e) {
      // Malformed spec JSON / expression — an input error, not a finding.
      std::fprintf(stderr, "ftl_lint: %s: %s\n", path.c_str(), e.what());
      return 2;
    }
    // Under --certify the output states the proof status explicitly: every
    // UNSAT behind the verdicts passed the embedded LRAT checker
    // ("checked") or at least one was rejected ("failed", FTL-E003).
    const bool proof_failed =
        equiv.certify && lattice_mode && has_rule(report, "FTL-E003");
    if (json_format) {
      std::string json = report.render_json();
      if (equiv.certify && lattice_mode) {
        json.insert(1, std::string("\"proof\":\"") +
                           (proof_failed ? "failed" : "checked") + "\",");
      }
      std::printf("%s\n", json.c_str());
    } else if (!quiet) {
      if (files.size() > 1) std::printf("== %s ==\n", path.c_str());
      std::printf("%s", report.render_text().c_str());
      if (equiv.certify && lattice_mode) {
        std::printf("proof: %s\n", proof_failed ? "failed" : "checked");
      }
    }
    if (!report.ok()) {
      exit_code = 2;
    } else if (!report.clean() && exit_code == 0) {
      exit_code = 1;
    }
  }
  return exit_code;
}
