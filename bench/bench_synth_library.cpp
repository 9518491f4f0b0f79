// Cold-vs-warm cost of the NPN lattice library: how much a class hit saves
// over re-running the CEGAR SAT engine, and whether a permuted/negated
// request mix actually hits.
//
// Three sections, each with built-in correctness gates:
//  1. Cold — every base target is synthesized by the SAT engine with the
//     library disabled (both output phases, so the store ends up fully
//     covered); each result must realize its target.
//  2. Warm — a mix of random NPN transforms of the bases (input
//     permutations and negations plus output complement) is resolved
//     through the populated library, once untimed to let self-complementary
//     phase slots self-populate, then timed; EVERY timed request must come
//     back from_library with a verified lattice — one engine fallback fails
//     the run.
//  3. Headline — mean warm lookup must be at least 100x faster than the
//     mean cold SAT solve. The gate decides the exit code along with the
//     correctness checks.
//
//   bench_synth_library [out.json] [--quick]
//
// --quick shrinks the transform mix (CI smoke); the hit-rate and 100x
// gates still run and still decide the exit code.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "ftl/lattice/function.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/library/npn.hpp"
#include "ftl/library/store.hpp"
#include "ftl/library/synthesize.hpp"
#include "ftl/logic/truth_table.hpp"
#include "ftl/util/table.hpp"

namespace {

using ftl::logic::TruthTable;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

TruthTable parity(int n) {
  return TruthTable::from_function(n, [](std::uint64_t m) {
    return (__builtin_popcountll(m) & 1) != 0;
  });
}

TruthTable majority3() {
  return TruthTable::from_function(
      3, [](std::uint64_t m) { return __builtin_popcountll(m) >= 2; });
}

TruthTable pairwise_or(int n) {
  return TruthTable::from_function(n, [n](std::uint64_t m) {
    for (int v = 0; v + 1 < n; v += 2) {
      if (((m >> v) & 1) != 0 && ((m >> (v + 1)) & 1) != 0) return true;
    }
    return false;
  });
}

ftl::library::NpnTransform random_transform(int n, std::mt19937_64& rng) {
  ftl::library::NpnTransform t;
  t.num_vars = n;
  for (int j = n - 1; j > 0; --j) {
    std::swap(t.perm[j],
              t.perm[std::uniform_int_distribution<int>(0, j)(rng)]);
  }
  t.input_negations = static_cast<std::uint32_t>(rng() & ((1u << n) - 1u));
  t.output_negation = (rng() & 1u) != 0;
  return t;
}

struct ColdRow {
  std::string name;
  double direct_ms = 0.0;      ///< SAT solve of the target itself
  double complement_ms = 0.0;  ///< SAT solve of its negation
  bool ok = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_pr8.json";
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
  ftl::library::LatticeLibrary lib;  // memory-only: timings stay disk-free

  const std::vector<std::pair<std::string, TruthTable>> bases = {
      {"and-or ab+cd", pairwise_or(4)},
      {"maj3", majority3()},
      {"xor3", parity(3)},
  };

  // --- 1. cold: SAT engine, library bypassed ------------------------------
  std::vector<ColdRow> cold;
  double cold_total_ms = 0.0;
  std::size_t cold_solves = 0;
  for (const auto& [name, base] : bases) {
    ColdRow row;
    row.name = name;
    // Both output phases, each at its own Altun-Riedel shape (guaranteed
    // feasible, so the SAT engine always terminates with a lattice).
    for (const bool complement : {false, true}) {
      const TruthTable target = complement ? ~base : base;
      const ftl::lattice::Lattice shape =
          ftl::lattice::altun_riedel_synthesis(target);
      ftl::library::SynthesisRequest request;
      request.engine = ftl::library::SynthesisRequest::Engine::kSat;
      request.rows = shape.rows();
      request.cols = shape.cols();
      request.use_library = false;  // cold: always pay for the solver...
      request.populate = true;      // ...but keep the result for phase 2
      const auto start = Clock::now();
      const ftl::library::SynthesisResult result =
          ftl::library::synthesize(target, request, &lib);
      const double elapsed = ms_since(start);
      (complement ? row.complement_ms : row.direct_ms) = elapsed;
      cold_total_ms += elapsed;
      ++cold_solves;
      if (!result.found || result.from_library ||
          !ftl::lattice::realizes(result.lattice, target)) {
        std::fprintf(stderr, "FAIL: cold %s (%s) did not SAT-solve\n",
                     name.c_str(), complement ? "complement" : "direct");
        row.ok = false;
      }
    }
    ok = ok && row.ok;
    cold.push_back(row);
  }
  const double cold_mean_ms = cold_total_ms / static_cast<double>(cold_solves);

  // --- 2. warm: permuted/negated mix through the library ------------------
  const int transforms_per_base = quick ? 8 : 64;
  std::mt19937_64 rng(42);
  std::vector<std::pair<std::string, TruthTable>> mix;
  for (const auto& [name, base] : bases) {
    for (int i = 0; i < transforms_per_base; ++i) {
      mix.emplace_back(name, ftl::library::apply_npn(
                                 base, random_transform(base.num_vars(), rng)));
    }
  }
  // Priming pass, untimed. The cold solves above covered both output phases,
  // but for self-complementary classes (maj3, xor3) the complement slot
  // stays empty — ~base canonicalizes back to the direct phase — so an
  // output-negated transform can still miss once. Running the mix once lets
  // those misses populate the slot through the fallback engine; the timed
  // pass below must then be 100% hits.
  for (const auto& [name, target] : mix) {
    ftl::library::SynthesisRequest request;  // library, then Altun-Riedel
    (void)ftl::library::synthesize(target, request, &lib);
  }
  std::size_t warm_requests = 0, warm_hits = 0;
  double warm_total_ms = 0.0;
  for (const auto& [name, target] : mix) {
    ftl::library::SynthesisRequest request;
    const auto start = Clock::now();
    const ftl::library::SynthesisResult result =
        ftl::library::synthesize(target, request, &lib);
    warm_total_ms += ms_since(start);
    ++warm_requests;
    if (result.from_library) ++warm_hits;
    if (!result.found || !ftl::lattice::realizes(result.lattice, target)) {
      std::fprintf(stderr, "FAIL: warm %s request %zu wrong lattice\n",
                   name.c_str(), warm_requests);
      ok = false;
    }
  }
  const double warm_mean_ms =
      warm_total_ms / static_cast<double>(warm_requests);
  const double hit_rate =
      static_cast<double>(warm_hits) / static_cast<double>(warm_requests);
  if (warm_hits != warm_requests) {
    std::fprintf(stderr,
                 "FAIL: %zu of %zu warm requests fell back to an engine\n",
                 warm_requests - warm_hits, warm_requests);
    ok = false;
  }
  const std::uint64_t verify_rejects = lib.counters().verify_rejects.get();
  if (verify_rejects != 0) {
    std::fprintf(stderr, "FAIL: %llu library hits failed verification\n",
                 static_cast<unsigned long long>(verify_rejects));
    ok = false;
  }

  // --- 3. headline gate ----------------------------------------------------
  const double speedup = cold_mean_ms / warm_mean_ms;
  const bool gate_100x = speedup >= 100.0;
  if (!gate_100x) {
    std::fprintf(stderr, "FAIL: warm/cold speedup %.0fx is below 100x\n",
                 speedup);
    ok = false;
  }

  // --- report --------------------------------------------------------------
  const auto fmt = [](const char* spec, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, spec, value);
    return std::string(buf);
  };
  ftl::util::ConsoleTable table({"base", "cold direct", "cold complement"});
  for (const ColdRow& row : cold) {
    table.add_row({row.name, fmt("%.2f ms", row.direct_ms),
                   fmt("%.2f ms", row.complement_ms)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "warm mix  %zu NPN-transformed requests, %zu library hits (%.0f%%)\n",
      warm_requests, warm_hits, hit_rate * 100.0);
  std::printf("cold mean %.3f ms/solve, warm mean %.4f ms/lookup -> %.0fx\n",
              cold_mean_ms, warm_mean_ms, speedup);

  std::ofstream file(out_path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  file << "{\"bench\":\"synth_library\",\"quick\":" << (quick ? "true" : "false")
       << ",\"cold\":[";
  for (std::size_t i = 0; i < cold.size(); ++i) {
    if (i != 0) file << ",";
    file << "{\"target\":\"" << cold[i].name << "\""
         << ",\"direct_ms\":" << cold[i].direct_ms
         << ",\"complement_ms\":" << cold[i].complement_ms << "}";
  }
  file << "],\"warm\":{\"requests\":" << warm_requests
       << ",\"hits\":" << warm_hits << ",\"hit_rate\":" << hit_rate
       << ",\"mean_ms\":" << warm_mean_ms << "}"
       << ",\"cold_mean_ms\":" << cold_mean_ms
       << ",\"speedup\":" << speedup
       << ",\"gate_100x\":" << (gate_100x ? "true" : "false")
       << ",\"library\":{\"classes\":" << lib.num_classes()
       << ",\"entries\":" << lib.num_entries()
       << ",\"class_hits\":" << lib.counters().class_hits.get()
       << ",\"verify_rejects\":" << verify_rejects << "}"
       << ",\"ok\":" << (ok ? "true" : "false") << "}\n";

  std::printf("%s: %s\n", ok ? "PASS" : "FAIL", out_path.c_str());
  return ok ? 0 : 1;
}
