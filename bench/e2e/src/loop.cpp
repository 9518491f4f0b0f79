#include "loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "ftl/util/error.hpp"

namespace bench_e2e {

namespace {

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

int poll_ms(Clock::time_point until) {
  const double ms = ms_between(Clock::now(), until);
  return ms <= 0.0 ? 0 : std::min(100, static_cast<int>(ms) + 1);
}

/// CPU seconds the calling thread has used.
double thread_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_THREAD, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

}  // namespace

ClosedLoop::ClosedLoop(int port, int connections) {
  for (int i = 0; i < connections; ++i) {
    Conn c;
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) throw ftl::Error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      const std::string why = std::strerror(errno);
      ::close(c.fd);
      throw ftl::Error("cannot connect to port " + std::to_string(port) +
                       ": " + why);
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(c));
  }
}

ClosedLoop::~ClosedLoop() {
  for (Conn& c : conns_) ::close(c.fd);
}

PhaseStats ClosedLoop::run(int depth, double seconds, Traffic& traffic,
                       double drain_limit_s) {
  PhaseStats st;
  const double cpu0 = thread_cpu_s();
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop = after(start, seconds);
  const Clock::time_point give_up = after(stop, drain_limit_s);
  const std::size_t want = static_cast<std::size_t>(std::max(depth, 1));
  bool sending = true;
  std::vector<pollfd> pfds(conns_.size());
  char chunk[65536];

  while (st.error.empty()) {
    Clock::time_point now = Clock::now();
    if (sending && now >= stop) sending = false;
    if (!sending && now >= give_up) {
      st.error = "replies still outstanding " + std::to_string(drain_limit_s) +
                 " s after the window";
      break;
    }
    bool outstanding = false;
    for (std::size_t i = 0; i < conns_.size() && st.error.empty(); ++i) {
      Conn& c = conns_[i];
      while (sending && c.outstanding() < want) {
        std::uint64_t tag = 0;
        if (!traffic.next(static_cast<int>(i), c.out, tag)) {
          st.ran_out = true;
          sending = false;
          break;
        }
        c.out.push_back('\n');
        c.tags.push_back(tag);
        c.sent_at.push_back(now);
        ++st.sent;
      }
      while (c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
            st.error = std::string("send: ") + std::strerror(errno);
          }
          break;
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
      outstanding = outstanding || c.outstanding() > 0;
    }
    if (!st.error.empty() || (!sending && !outstanding)) break;

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const bool pending_out = conns_[i].out_off < conns_[i].out.size();
      pfds[i] = pollfd{conns_[i].fd,
                       static_cast<short>(POLLIN | (pending_out ? POLLOUT : 0)),
                       0};
    }
    const int ready = ::poll(pfds.data(), pfds.size(),
                             poll_ms(sending ? stop : give_up));
    if (ready <= 0) continue;
    now = Clock::now();
    const double at_s = s_between(start, now);
    for (std::size_t i = 0; i < conns_.size() && st.error.empty(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns_[i];
      while (true) {
        const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
        if (n > 0) {
          c.in.append(chunk, static_cast<std::size_t>(n));
          if (static_cast<std::size_t>(n) < sizeof chunk) break;
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0) {
          st.error = "server closed a connection";
        } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
          st.error = std::string("recv: ") + std::strerror(errno);
        }
        break;
      }
      std::size_t begin = 0;
      while (true) {
        const std::size_t nl = c.in.find('\n', begin);
        if (nl == std::string::npos) break;
        if (c.outstanding() == 0) {
          st.error = "reply without a request";
          break;
        }
        const std::string_view line(c.in.data() + begin, nl - begin);
        traffic.reply(c.tags[c.head], line, us_between(c.sent_at[c.head], now),
                      at_s);
        ++c.head;
        ++st.received;
        begin = nl + 1;
      }
      c.in.erase(0, begin);
      if (c.head > 4096 && c.head * 2 > c.tags.size()) {
        c.tags.erase(c.tags.begin(), c.tags.begin() + static_cast<long>(c.head));
        c.sent_at.erase(c.sent_at.begin(),
                        c.sent_at.begin() + static_cast<long>(c.head));
        c.head = 0;
      }
    }
  }
  if (!st.error.empty()) {
    // Whatever was outstanding is lost with the connection state.
    for (Conn& c : conns_) {
      c.tags.clear();
      c.sent_at.clear();
      c.head = 0;
      c.out.clear();
      c.out_off = 0;
      c.in.clear();
    }
  }
  st.wall_s = s_between(start, Clock::now());
  st.gen_cpu_s = thread_cpu_s() - cpu0;
  return st;
}

}  // namespace bench_e2e
