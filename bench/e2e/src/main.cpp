// bench_e2e — the end-to-end benchmark of ftl_serve and the ftl_run figure
// pipeline (see bench/e2e/README.md).
//
//   bench_e2e --workload serve_warm --seed 1 --seconds 15 --trace 0
//   bench_e2e --workload all                 every workload, one report
//   bench_e2e --smoke                        ~1 s per workload, quick DAG
//   bench_e2e --write-golden                 regenerate golden/ artifacts
//
// Prints one row per metric (value, unit, sample count), writes the rows
// in ROADMAP's result schema to --out, and ends stdout with one JSON object
// {"correct", "attempted", "failed", "metrics"}: the BENCHMARK.json
// end_to_end metrics, or its per_layer metrics under --trace 1. Exits 1
// when any request, job or correctness check failed, 2 on a usage error or
// a non-Release build (unless --allow-debug).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "ftl/serve/json.hpp"
#include "ftl/util/strings.hpp"
#include "workloads.hpp"

namespace {

using bench_e2e::Options;
using bench_e2e::Outcome;
using ftl::serve::JsonValue;

const char* const kWorkloads[] = {"serve_synth", "serve_sim", "serve_warm",
                                  "figures"};

void print_usage() {
  std::printf(
      "usage: bench_e2e [options]\n"
      "  --workload W    serve_synth, serve_sim, serve_warm, figures, or all\n"
      "                  (default all)\n"
      "  --seed N        input seed (default 1)\n"
      "  --seconds S     measurement window per workload (default 15)\n"
      "  --trace 0|1     1 = traced in-process replay, per-layer metrics\n"
      "  --smoke         ~1 s per workload, quick figure preset\n"
      "  --out F         result rows (default <work-dir>/result-...json)\n"
      "  --spans F       span file of a --trace run\n"
      "  --work-dir D    work directory (default bench_e2e_work)\n"
      "  --allow-debug   run from a non-Release build\n"
      "  --write-golden  regenerate the golden figure artifacts and exit\n");
}

/// BENCHMARK.json's metric lists, for the result line and the bounds.
struct Spec {
  std::vector<std::string> end_to_end;
  std::vector<std::string> per_layer;
  std::map<std::string, double> bounds;
};

std::optional<Spec> read_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  const JsonValue json = JsonValue::parse(text.str());
  Spec spec;
  for (const char* list : {"end_to_end", "per_layer"}) {
    const JsonValue* items = json.find(list);
    if (items == nullptr || !items->is_array()) continue;
    for (const JsonValue& m : items->items()) {
      const std::string name = m.string_or("name", "");
      (std::strcmp(list, "end_to_end") == 0 ? spec.end_to_end : spec.per_layer)
          .push_back(name);
      if (const JsonValue* b = m.find("bound"); b != nullptr && b->is_number()) {
        spec.bounds[name] = b->as_number();
      }
    }
  }
  return spec;
}

JsonValue num(double v) { return JsonValue::number(v); }

void write_rows(const std::string& path, const Options& opts,
                const std::vector<Outcome>& outcomes, const Spec& spec) {
  JsonValue doc = JsonValue::object();
  doc.set("bench", JsonValue::str("bench_e2e"));
  doc.set("git_sha", JsonValue::str(FTL_BENCH_GIT_SHA));
  doc.set("build_type", JsonValue::str(FTL_BENCH_BUILD_TYPE));
  doc.set("compiler", JsonValue::str(FTL_BENCH_COMPILER));
  doc.set("nproc", num(std::thread::hardware_concurrency()));
  doc.set("seed", num(static_cast<double>(opts.seed)));
  doc.set("seconds", num(opts.seconds));
  doc.set("trace", JsonValue::boolean(opts.trace));
  JsonValue runs = JsonValue::array();
  JsonValue rows = JsonValue::array();
  for (const Outcome& o : outcomes) {
    JsonValue run = JsonValue::object();
    run.set("workload", JsonValue::str(o.workload));
    run.set("attempted", num(static_cast<double>(o.attempted)));
    run.set("failed", num(static_cast<double>(o.failed)));
    runs.push(std::move(run));
    for (const bench_e2e::Row& r : o.rows) {
      JsonValue row = JsonValue::object();
      row.set("workload", JsonValue::str(o.workload));
      row.set("metric", JsonValue::str(r.metric));
      row.set("value", std::isfinite(r.value) ? num(r.value) : JsonValue::null());
      row.set("unit", JsonValue::str(r.unit));
      row.set("n", num(static_cast<double>(r.n)));
      const auto b = spec.bounds.find(r.metric);
      row.set("bound", b != spec.bounds.end() ? num(b->second) : JsonValue::null());
      rows.push(std::move(row));
    }
  }
  doc.set("runs", std::move(runs));
  doc.set("rows", std::move(rows));
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) bench_e2e::make_dirs(parent.string());
  std::ofstream(path) << doc.dump() << "\n";
}

void print_report(const Options& opts, std::vector<Outcome>& outcomes,
                  const Spec& spec) {
  std::printf("bench_e2e  git %s  %s  %s  nproc %u  seed %llu  %s\n",
              FTL_BENCH_GIT_SHA, FTL_BENCH_BUILD_TYPE, FTL_BENCH_COMPILER,
              std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(opts.seed),
              opts.trace ? "traced replay" : "end to end");
  std::printf("%-12s %-34s %16s %-6s %9s %6s\n", "workload", "metric", "value",
              "unit", "n", "bound");
  for (const Outcome& o : outcomes) {
    for (const bench_e2e::Row& r : o.rows) {
      const auto b = spec.bounds.find(r.metric);
      char bound[16] = "-";
      if (b != spec.bounds.end()) std::snprintf(bound, sizeof bound, "%.2f", b->second);
      std::printf("%-12s %-34s %16.6g %-6s %9zu %6s\n", o.workload.c_str(),
                  r.metric.c_str(), r.value, r.unit.c_str(), r.n, bound);
    }
    const double frac = o.attempted > 0 ? static_cast<double>(o.failed) /
                                              static_cast<double>(o.attempted)
                                        : 0.0;
    std::printf("%-12s %llu attempted, %llu failed (fail_frac %.3g)\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed), frac);
    for (const std::string& why : o.failures) {
      std::printf("  FAIL %s\n", why.c_str());
    }
  }
}

/// The result line: every BENCHMARK.json metric of this mode, by name
/// (prefixed by the workload when several ran). A listed metric a workload
/// did not measure is a failure.
JsonValue result_line(const Options& opts, std::vector<Outcome>& outcomes,
                   const Spec& spec) {
  const std::vector<std::string>& names = opts.trace ? spec.per_layer : spec.end_to_end;
  JsonValue metrics = JsonValue::object();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (Outcome& o : outcomes) {
    for (const std::string& name : names) {
      const bench_e2e::Row* row = o.find(name);
      if (row == nullptr || !std::isfinite(row->value)) {
        o.fail("metric " + name + " was not measured");
        continue;
      }
      JsonValue m = JsonValue::object();
      m.set("value", num(row->value));
      m.set("unit", JsonValue::str(row->unit));
      metrics.set(outcomes.size() == 1 ? name : o.workload + "." + name, std::move(m));
    }
    attempted += o.attempted;
    failed += o.failed;
  }
  JsonValue line = JsonValue::object();
  line.set("correct", JsonValue::boolean(failed == 0));
  line.set("attempted", num(static_cast<double>(attempted)));
  line.set("failed", num(static_cast<double>(failed)));
  line.set("metrics", std::move(metrics));
  return line;
}

Outcome run_one(const Options& opts) {
  try {
    if (opts.trace) return bench_e2e::run_trace(opts);
    if (opts.workload == "serve_synth") return bench_e2e::run_serve_synth(opts);
    if (opts.workload == "serve_sim") return bench_e2e::run_serve_sim(opts);
    if (opts.workload == "serve_warm") return bench_e2e::run_serve_warm(opts);
    return bench_e2e::run_figures(opts);
  } catch (const std::exception& e) {
    Outcome out;
    out.workload = opts.workload;
    out.fail(std::string("run aborted: ") + e.what());
    return out;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string out_path;
  std::string spans_path;
  bool allow_debug = false;
  bool golden = false;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_e2e: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    const auto number = [&](long lo, long hi) {
      const std::optional<long> v = ftl::util::parse_long_in(value(), lo, hi);
      if (!v) {
        std::fprintf(stderr, "bench_e2e: %s needs an integer in [%ld, %ld]\n",
                     arg.c_str(), lo, hi);
        std::exit(2);
      }
      return *v;
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = static_cast<std::uint64_t>(number(0, 1L << 62));
    } else if (arg == "--seconds") {
      opts.seconds = static_cast<double>(number(1, 3600));
      seconds_given = true;
    } else if (arg == "--trace") {
      opts.trace = number(0, 1) == 1;
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--spans") {
      spans_path = value();
    } else if (arg == "--work-dir") {
      opts.work_dir = value();
    } else if (arg == "--allow-debug") {
      allow_debug = true;
    } else if (arg == "--write-golden") {
      golden = true;
    } else {
      std::fprintf(stderr, "bench_e2e: unknown option %s\n", arg.c_str());
      print_usage();
      return 2;
    }
  }
  if (std::strcmp(FTL_BENCH_BUILD_TYPE, "Release") != 0 && !allow_debug) {
    std::fprintf(stderr,
                 "bench_e2e: this is a '%s' build; timings need Release "
                 "(pass --allow-debug to run anyway)\n",
                 FTL_BENCH_BUILD_TYPE);
    return 2;
  }
  if (golden) return bench_e2e::write_golden(opts);
  if (opts.smoke && !seconds_given) opts.seconds = 1;

  std::vector<std::string> workloads;
  for (const char* w : kWorkloads) {
    if (opts.workload == "all" || opts.workload == w) workloads.emplace_back(w);
  }
  if (workloads.empty()) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  const std::optional<Spec> spec = read_spec(FTL_BENCH_ROOT "/BENCHMARK.json");
  if (!spec) {
    std::fprintf(stderr, "bench_e2e: cannot read %s/BENCHMARK.json\n", FTL_BENCH_ROOT);
    return 2;
  }

  std::vector<Outcome> outcomes;
  for (const std::string& w : workloads) {
    Options one = opts;
    one.workload = w;
    one.spans_path = spans_path.empty()
                         ? opts.work_dir + "/spans-" + w + ".jsonl"
                         : spans_path;
    outcomes.push_back(run_one(one));
  }
  const JsonValue line = result_line(opts, outcomes, *spec);
  print_report(opts, outcomes, *spec);
  if (out_path.empty()) {
    out_path = opts.work_dir + "/result-" + opts.workload + "-" +
               std::to_string(opts.seed) + (opts.trace ? "-trace" : "") + ".json";
  }
  write_rows(out_path, opts, outcomes, *spec);
  std::printf("rows: %s\n", out_path.c_str());
  std::printf("%s\n", line.dump().c_str());
  return line.find("correct")->as_bool() ? 0 : 1;
}
