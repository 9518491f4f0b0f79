#include "proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "ftl/util/error.hpp"

extern char** environ;

namespace bench_e2e {

namespace {

int ms_left(Clock::time_point deadline) {
  const double ms = ms_between(Clock::now(), deadline);
  return ms <= 0.0 ? 0 : static_cast<int>(ms) + 1;
}

/// What the cloned child needs before exec; it shares this memory with the
/// parent, which stays suspended until the exec (CLONE_VFORK).
struct ExecPlan {
  char* const* argv;
  int stdout_fd;  ///< dup'ed onto stdout; -1 = /dev/null
  pid_t parent;
  int exec_errno = 0;  ///< set by the child when it cannot exec
};

/// Runs in the child: only system calls until the exec, as after vfork.
int exec_child(void* arg) {
  ExecPlan& plan = *static_cast<ExecPlan*>(arg);
  // The child dies with the benchmark, even a killed one, so no server is
  // ever left running; the parent check closes the race where the parent
  // died before the request took effect.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != plan.parent) ::_exit(127);
  const int fd = plan.stdout_fd >= 0 ? plan.stdout_fd
                                     : ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  if (fd < 0 || ::dup2(fd, STDOUT_FILENO) < 0) {
    plan.exec_errno = errno;
    ::_exit(127);
  }
  ::execve(plan.argv[0], plan.argv, environ);
  plan.exec_errno = errno;
  ::_exit(127);
}

}  // namespace

Child::Child(const std::vector<std::string>& argv, bool pipe_stdout) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  int fds[2] = {-1, -1};
  if (pipe_stdout && ::pipe2(fds, O_CLOEXEC) != 0) {
    throw ftl::Error(std::string("pipe2: ") + std::strerror(errno));
  }
  ExecPlan plan{args.data(), fds[1], ::getpid()};
  // A vfork-style clone: no copy of this process's page tables, so the
  // spawn costs the same however much memory the benchmark holds.
  std::vector<char> stack(256 * 1024);
  pid_ = ::clone(exec_child, stack.data() + stack.size(),
                 CLONE_VM | CLONE_VFORK | SIGCHLD, &plan);
  if (pipe_stdout) {
    ::close(fds[1]);
    out_fd_ = fds[0];
  }
  const int err = pid_ < 0 ? errno : plan.exec_errno;
  if (err != 0) {
    if (pid_ > 0) ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    if (out_fd_ >= 0) ::close(out_fd_);
    throw ftl::Error("cannot start " + argv[0] + ": " + std::strerror(err));
  }
  pid_fd_ = static_cast<int>(::syscall(SYS_pidfd_open, pid_, 0));
}

Child::~Child() {
  if (pid_ > 0 && !reaped_) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (out_fd_ >= 0) ::close(out_fd_);
  if (pid_fd_ >= 0) ::close(pid_fd_);
}

std::optional<std::string> Child::read_line(double timeout_s) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (true) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    if (out_fd_ < 0) return std::nullopt;
    pollfd p{out_fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, ms_left(deadline));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return std::nullopt;
    char chunk[4096];
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

Child::Exit Child::wait(double timeout_s) {
  Exit out;
  if (pid_ <= 0 || reaped_) {
    out.how = "not running";
    return out;
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  int status = 0;
  bool timed_out = false;
  while (true) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) throw ftl::Error("waitpid failed");
    if (Clock::now() >= deadline) {
      timed_out = true;
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    if (pid_fd_ >= 0) {
      pollfd p{pid_fd_, POLLIN, 0};
      ::poll(&p, 1, ms_left(deadline));
    } else {
      ::usleep(1000);
    }
  }
  out.at = Clock::now();
  reaped_ = true;
  if (timed_out) {
    out.how = "timeout";
  } else if (WIFEXITED(status)) {
    out.clean = WEXITSTATUS(status) == 0;
    out.how = "exit " + std::to_string(WEXITSTATUS(status));
  } else if (WIFSIGNALED(status)) {
    out.how = "signal " + std::to_string(WTERMSIG(status));
  }
  return out;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return std::nan("");
}

}  // namespace bench_e2e
