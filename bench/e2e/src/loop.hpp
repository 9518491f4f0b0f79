#pragma once
// The load generator: one thread, up to four TCP connections to one ftl_serve,
// each keeping a fixed number of requests outstanding (a closed loop — the
// next request on a connection leaves only when a reply comes back, the
// way ftl_lint, design scripts and loadgen CI wait for theirs). Replies come
// back in request order per connection, so a FIFO of send times gives each
// reply its send-to-reply latency.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace bench_e2e {

/// Where the generator takes requests from and hands replies to.
class Traffic {
 public:
  virtual ~Traffic() = default;
  /// Appends the next request line (no newline) for connection `conn` to
  /// `out` and sets its tag. Returns false when the pregenerated lines have
  /// run out, which ends the phase and fails the run.
  virtual bool next(int conn, std::string& out, std::uint64_t& tag) = 0;
  /// The reply to the request tagged `tag`, which arrived `at_s` seconds
  /// after the phase began (past its length while draining).
  virtual void reply(std::uint64_t tag, std::string_view response,
                     double latency_us, double at_s) = 0;
};

struct PhaseStats {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  bool ran_out = false;      ///< the traffic had no more lines
  std::string error;         ///< transport failure; empty when none
  double wall_s = 0.0;       ///< phase start to last drained reply
  double gen_cpu_s = 0.0;    ///< this thread's CPU time during the phase
};

class ClosedLoop {
 public:
  /// Opens `connections` connections to 127.0.0.1:`port`; throws
  /// ftl::Error when one cannot be made.
  ClosedLoop(int port, int connections);
  ~ClosedLoop();

  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Keeps `depth` requests outstanding on every connection for `seconds`,
  /// then stops sending and drains the replies (giving up after
  /// `drain_limit_s`, which counts as a transport failure).
  PhaseStats run(int depth, double seconds, Traffic& traffic,
                 double drain_limit_s = 60.0);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::vector<std::uint64_t> tags;  ///< FIFO of outstanding requests
    std::vector<Clock::time_point> sent_at;
    std::size_t head = 0;             ///< first outstanding FIFO entry
    std::size_t outstanding() const { return tags.size() - head; }
  };
  std::vector<Conn> conns_;
};

}  // namespace bench_e2e
