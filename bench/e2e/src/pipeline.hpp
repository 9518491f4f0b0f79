#pragma once
// One ftl_run invocation and the checks on it, shared by the figures
// workload and the traced replay.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "ftl/serve/json.hpp"
#include "proc.hpp"

namespace bench_e2e {

struct Invocation {
  Clock::time_point spawned;
  double setup_ms = 0.0;  ///< spawn to the run_start event (NaN: none seen)
  double wall_ms = 0.0;   ///< spawn to exit
  double peak_rss_mb = 0.0;  ///< last VmHWM read while it ran
  Child::Exit exit;
  std::vector<ftl::serve::JsonValue> events;  ///< its telemetry, in order
};

/// Runs `ftl_run --jobs 4 --cache-dir cache_dir` (plus --quick) with its
/// telemetry streamed through the FIFO `fifo`.
Invocation run_pipeline(bool quick, const std::string& cache_dir,
                        const std::string& fifo);

/// Golden artifacts of one preset ("full" or "quick"), serialized, by job.
std::map<std::string, std::string> load_golden(bool quick);

/// Checks one invocation against the golden job set: a cold run must
/// compute every job to an artifact equal to the golden one within
/// relative tolerance 1e-6; a warm rerun must serve every job from the
/// cache. Failures go to `out`. Returns the number of bit-exact artifacts.
int check_invocation(const Invocation& inv, bool cold,
                     const std::string& cache_dir,
                     const std::map<std::string, std::string>& golden,
                     Outcome& out);

}  // namespace bench_e2e
