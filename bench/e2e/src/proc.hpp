#pragma once
// The programs under test run as child processes: ftl_serve and ftl_run,
// always reaped. A Child that is destroyed while its process still runs
// kills (SIGKILL) and waits for it, and a child is killed by the kernel if
// the benchmark itself dies, so no exit path leaves a process behind.

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

#include "common.hpp"

namespace bench_e2e {

class Child {
 public:
  /// Starts argv[0] with `argv` from the main thread (the child is bound to
  /// the lifetime of the thread that starts it). With `pipe_stdout` the
  /// child's stdout is a pipe read through read_line(); otherwise it goes
  /// to /dev/null. stderr is inherited. Throws ftl::Error when the spawn or
  /// the exec fails.
  Child(const std::vector<std::string>& argv, bool pipe_stdout);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Next stdout line without its newline; nullopt at EOF or when
  /// `timeout_s` passes first.
  std::optional<std::string> read_line(double timeout_s);

  struct Exit {
    bool clean = false;       ///< exited with status 0
    std::string how;          ///< "exit 0", "exit 1", "signal 9", "timeout"
    Clock::time_point at;     ///< when the exit was observed
  };

  /// Waits up to `timeout_s` for the process to end, then kills it. The
  /// exit time is observed through a pidfd, so it is exact to the poll
  /// wake-up, not to a sleep interval.
  Exit wait(double timeout_s);

  /// A descriptor that polls readable once the process has ended; -1 when
  /// the kernel offers no pidfd.
  int exit_fd() const { return pid_fd_; }

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int pid_fd_ = -1;
  bool reaped_ = false;
  std::string buf_;
};

/// A running process's peak resident set so far (VmHWM of its own address
/// space), in MB; NaN once it has exited. wait4's ru_maxrss is no use
/// here: it also counts the address space the child replaced at exec,
/// which for a spawned child is this benchmark's own.
double peak_rss_mb(pid_t pid);

}  // namespace bench_e2e
