#pragma once
// The four workloads (see README.md for why each exists), the traced
// replay that yields the per-layer metrics, and the ftl_serve lifecycle
// they share.

#include <memory>

#include "common.hpp"
#include "proc.hpp"

namespace bench_e2e {

Outcome run_serve_synth(const Options& opts);
Outcome run_serve_sim(const Options& opts);
Outcome run_serve_warm(const Options& opts);
Outcome run_figures(const Options& opts);

/// Writes the figure pipeline's artifacts (full and --quick presets) as
/// the golden set (bench/e2e/golden). Returns a process exit code.
int write_golden(const Options& opts);

/// The traced in-process replay (--trace 1) for `opts.workload`.
Outcome run_trace(const Options& opts);

/// A running `ftl_serve --port 0` with default options.
struct Served {
  std::unique_ptr<Child> child;
  int port = 0;
  double ready_s = 0.0;  ///< spawn to "listening on" plus an answered ping
};

/// Starts ftl_serve and waits until it answers a ping; throws ftl::Error
/// when it does not within 30 s.
Served start_served();

/// Sends the shutdown op and reaps the process.
Child::Exit stop_served(Served& served);

}  // namespace bench_e2e
