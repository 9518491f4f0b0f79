// ftl_run — the paper's experiment pipeline as a cached job graph.
//
//   ftl_run --list                     show every job and its dependencies
//   ftl_run all                        run the full Figs. 5-12 + Table III DAG
//   ftl_run fig11 --jobs 4             one figure (plus its dependency cone)
//   ftl_run fig5 fig8 --cache-dir .ftl-cache --events run.jsonl
//
// A warm second run serves every TCAD sweep and fit from the content-
// addressed cache, so iterating on a SPICE-stage job never re-simulates the
// device physics upstream of it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ftl/check/equivalence.hpp"
#include "ftl/check/netlist.hpp"
#include "ftl/jobs/cache.hpp"
#include "ftl/lattice/known_mappings.hpp"
#include "ftl/jobs/pipeline.hpp"
#include "ftl/jobs/scheduler.hpp"
#include "ftl/jobs/telemetry.hpp"
#include "ftl/util/error.hpp"
#include "ftl/util/strings.hpp"

namespace {

// Numeric flag values go through util::parse_long so "--jobs banana" and
// "--mesh 0x" are rejected instead of silently becoming 0.
long parse_flag(const char* flag, const char* value, long min_value,
                long max_value) {
  const std::optional<long> parsed =
      ftl::util::parse_long_in(value, min_value, max_value);
  if (!parsed) {
    std::fprintf(stderr, "ftl_run: %s needs an integer in [%ld, %ld], got '%s'\n",
                 flag, min_value, max_value, value);
    std::exit(2);
  }
  return *parsed;
}

void print_usage() {
  std::printf(
      "usage: ftl_run [targets...] [options]\n"
      "  targets        job names or prefixes (fig5..fig12, table3,\n"
      "                 tcad_square_hfo2, ...); 'all' or none = whole DAG\n"
      "  --list         print the job graph and exit\n"
      "  --lint         run the ftl::check static passes over the\n"
      "                 pipeline-generated bench circuits, SAT-prove the\n"
      "                 pipeline's lattice mappings, and exit\n"
      "  --jobs N       parallelism (0 = pool default, 1 = serial)\n"
      "  --workers N    SPICE-stage thread cap for the Monte-Carlo jobs\n"
      "                 (0 = hardware concurrency); results are identical\n"
      "                 for every setting\n"
      "  --cache-dir D  content-addressed result cache (default .ftl-cache)\n"
      "  --no-cache     force a cold run (cache neither read nor written)\n"
      "  --events F     append JSON-lines telemetry events to F\n"
      "  --mesh N       TCAD mesh resolution (default 48)\n"
      "  --points N     I-V sweep points (default 26)\n"
      "  --quick        small preset (mesh 12, 9 points, short transient)\n");
}

void print_graph(const ftl::jobs::PaperPipeline& pipeline) {
  std::printf("%-18s %s\n", "job", "depends on");
  for (const ftl::jobs::JobId id : pipeline.all) {
    const ftl::jobs::JobDesc& job = pipeline.graph.job(id);
    std::string deps;
    for (const ftl::jobs::JobId dep : job.deps) {
      if (!deps.empty()) deps += ", ";
      deps += pipeline.graph.job(dep).name;
    }
    std::printf("%-18s %s\n", job.name.c_str(),
                deps.empty() ? "-" : deps.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> targets;
  ftl::jobs::PipelineOptions pipeline_options;
  ftl::jobs::RunOptions run_options;
  run_options.cache_dir = ".ftl-cache";
  std::string events_path;
  bool list_only = false;
  bool lint_only = false;

  const auto next_arg = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "ftl_run: %s needs a value\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_usage();
      return 0;
    } else if (std::strcmp(arg, "--list") == 0) {
      list_only = true;
    } else if (std::strcmp(arg, "--lint") == 0) {
      lint_only = true;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      run_options.jobs =
          static_cast<std::size_t>(parse_flag("--jobs", next_arg(i), 0, 4096));
    } else if (std::strcmp(arg, "--workers") == 0) {
      // Forwarded to VariabilityOptions::max_threads: it caps the threads
      // one Monte-Carlo job's trial loop may occupy. Jobs and their nested
      // loops share the one global pool (FTL_THREADS sizes it), so the cap
      // keeps that job from taking every idle worker from the others.
      pipeline_options.workers =
          static_cast<int>(parse_flag("--workers", next_arg(i), 0, 4096));
    } else if (std::strcmp(arg, "--cache-dir") == 0) {
      run_options.cache_dir = next_arg(i);
    } else if (std::strcmp(arg, "--no-cache") == 0) {
      run_options.use_cache = false;
    } else if (std::strcmp(arg, "--events") == 0) {
      events_path = next_arg(i);
    } else if (std::strcmp(arg, "--mesh") == 0) {
      pipeline_options.mesh =
          static_cast<int>(parse_flag("--mesh", next_arg(i), 12, 4096));
    } else if (std::strcmp(arg, "--points") == 0) {
      pipeline_options.sweep_points =
          static_cast<int>(parse_flag("--points", next_arg(i), 2, 100000));
    } else if (std::strcmp(arg, "--quick") == 0) {
      // Mesh 12 is the floor: coarser meshes lose the junctionless
      // device's terminal pads entirely.
      pipeline_options.mesh = 12;
      pipeline_options.sweep_points = 9;
      pipeline_options.chain_max = 5;
      pipeline_options.transient_dt = 1e-9;
      pipeline_options.transient_periods = 2;
      pipeline_options.mc_trials = 12;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "ftl_run: unknown option %s\n", arg);
      print_usage();
      return 2;
    } else {
      targets.emplace_back(arg);
    }
  }

  try {
    if (lint_only) {
      int exit_code = 0;
      for (const ftl::jobs::BenchCircuit& bench :
           ftl::jobs::pipeline_bench_circuits(pipeline_options)) {
        const ftl::check::Report report =
            ftl::check::check_circuit(bench.circuit);
        if (report.clean()) {
          std::printf("%s: clean\n", bench.name.c_str());
        } else {
          std::printf("%s:\n%s", bench.name.c_str(),
                      report.render_text().c_str());
        }
        if (!report.ok()) {
          exit_code = 1;
        }
      }
      // The transient stages build on the paper's XOR3 mappings; prove them
      // equivalent to their target with the CDCL miter before trusting any
      // simulation of them.
      ftl::check::EquivalenceOptions equiv;
      equiv.backend = ftl::check::EquivalenceOptions::Backend::kSat;
      const ftl::logic::TruthTable xor3 = ftl::lattice::xor3_truth_table();
      for (const auto& [name, lat] :
           {std::pair{"xor3_3x3", ftl::lattice::xor3_lattice_3x3()},
            std::pair{"xor3_3x4", ftl::lattice::xor3_lattice_3x4()}}) {
        const ftl::check::Report report =
            ftl::check::check_equivalence(lat, xor3, equiv);
        if (report.clean()) {
          std::printf("%s: equivalent (sat)\n", name);
        } else {
          std::printf("%s:\n%s", name, report.render_text().c_str());
          exit_code = 1;
        }
      }
      return exit_code;
    }
    const ftl::jobs::PaperPipeline pipeline =
        ftl::jobs::build_paper_pipeline(pipeline_options);
    if (list_only) {
      print_graph(pipeline);
      return 0;
    }
    run_options.targets = ftl::jobs::resolve_targets(pipeline, targets);

    std::unique_ptr<ftl::jobs::JsonlSink> events;
    if (!events_path.empty()) {
      events = std::make_unique<ftl::jobs::JsonlSink>(events_path);
      run_options.sink = events.get();
    }

    const ftl::jobs::RunResult result =
        ftl::jobs::run_graph(pipeline.graph, run_options);
    std::printf("%s", result.summary_table(pipeline.graph).c_str());
    std::printf(
        "%d computed, %d cache hits, %d failed, %d cancelled in %.0f ms\n",
        result.succeeded, result.cache_hits, result.failed, result.cancelled,
        result.wall_ms);
    return result.ok() ? 0 : 1;
  } catch (const ftl::Error& e) {
    std::fprintf(stderr, "ftl_run: %s\n", e.what());
    return 1;
  }
}
