#pragma once
// The in-process request engine behind ftl_serve. One Service owns the
// worker pool, the bounded admission queue, the response cache, and the
// stats registry; the TCP Server (server.hpp) is a thin byte-shuffling
// front-end over it, and tests drive the Service directly.
//
// Protocol: one JSON object per line. Every request carries "op" plus
// op-specific parameters; "id" (any JSON scalar) is echoed back verbatim
// and "deadline_ms" bounds the request's wall time from submission.
// Responses always carry "op" and "ok"; failures add "error" (one of
// bad_request, deadline_exceeded, overloaded, shutting_down, internal) and
// a human-readable "message".
//
// Ops: ping, synth, synth_sat, eval, paths, metrics, explore, lint, stats,
// sleep, shutdown. The pure ops (synth, synth_sat, eval, paths, metrics,
// explore, lint) are
// deterministic functions of their parameters, so responses are cached
// under jobs::cache_key content addresses — in memory always (a sharded
// map, per-shard locks keyed by the cache-key prefix so hot answers never
// contend on one mutex), and on disk when a cache_dir is configured (warm
// across restarts). A verbatim-line fast path answers repeated identical
// request lines (pure ops without "id"/"deadline_ms") without even parsing
// the JSON; its responses are byte-identical to the computed ones.

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "ftl/jobs/telemetry.hpp"
#include "ftl/lattice/lattice.hpp"
#include "ftl/logic/truth_table.hpp"
#include "ftl/serve/json.hpp"
#include "ftl/serve/stats.hpp"
#include "ftl/util/error.hpp"

namespace ftl::serve {

/// A lattice described by a request object: either spelled out
/// ("rows"/"cols"/"vars"/"cells", with cells like "a", "b'", "0", "1") or
/// named by a target expression ("expr", optionally "vars"), in which case
/// the Altun-Riedel construction supplies the lattice. `target` is set when
/// it came from an expression.
struct LatticeSpec {
  lattice::Lattice lat;
  std::optional<logic::TruthTable> target;
};

/// Parses a lattice spec from a JSON object (shared by the lattice-taking
/// service ops and the ftl_lint --lattice CLI). Throws ftl::Error on a
/// malformed spec.
LatticeSpec lattice_spec_from(const JsonValue& spec);

/// Thrown by request handlers when the request's deadline expires between
/// pipeline stages; mapped to the "deadline_exceeded" protocol error.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& stage)
      : Error("deadline exceeded during " + stage) {}
};

struct ServiceOptions {
  std::size_t workers = 4;       ///< request worker threads (>= 1)
  std::size_t queue_depth = 64;  ///< admitted-but-not-started high-water mark
  std::string cache_dir;         ///< on-disk response cache ("" = memory only)
  bool cache = true;             ///< serve repeated pure ops from cache
  /// NPN lattice-library root for the synth ops ("" = memory-only library).
  /// Unlike the response cache — which only answers byte-identical request
  /// lines — the library answers any request in the same NPN class by
  /// relabeling a stored lattice, so permuted/negated variants of an
  /// already-synthesized function skip the search engines entirely.
  std::string library_dir;
  bool library = true;  ///< consult/populate the lattice library
  jobs::EventSink* access_log = nullptr;  ///< per-request events (not owned)
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});
  ~Service();  ///< drains

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Parses and executes one request on the calling thread, bypassing the
  /// admission queue (workers and tests use this). Never throws: protocol
  /// and internal errors come back as error responses.
  std::string handle_now(const std::string& line);

  /// Admission-controlled asynchronous execution. The returned future is
  /// already satisfied (with an "overloaded" or "shutting_down" error
  /// response) when the queue is past its high-water mark or the service is
  /// draining; otherwise the request runs on a worker, with its deadline
  /// measured from this call and re-checked at dequeue.
  std::future<std::string> submit(std::string line);

  /// Callback flavor of submit() for event-loop callers: identical
  /// admission, deadline, and caching semantics, but no future allocation.
  /// `done` is invoked exactly once — synchronously on the calling thread
  /// for protocol errors, admission rejections, and cache hits (the hot
  /// path never hops to the worker pool), or on a pool worker otherwise.
  /// Service::drain() does not return while any `done` is still pending.
  void submit_async(std::string line,
                    std::function<void(std::string&&)> done);

  /// Graceful drain: stop admitting, wait for in-flight requests, flush the
  /// access log. Idempotent.
  void drain();

  bool draining() const;

  /// True once a "shutdown" request has been served; the TCP server polls
  /// this to initiate its own stop.
  bool shutdown_requested() const;

  /// Requests admitted and not yet completed (queued + executing).
  std::size_t in_flight() const;

  StatsRegistry& stats();
  const ServiceOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ftl::serve
