// figures: the paper's Figs. 5-12 + Table III job DAG through the real
// ftl_run binary — cold runs on fresh cache directories, then warm reruns
// against the last one — with every computed artifact compared to the
// golden set. Each run's telemetry streams through a FIFO, so the
// run_start event (the end of set-up) is seen the moment it is written.

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "ftl/jobs/artifact.hpp"
#include "ftl/jobs/cache.hpp"
#include "ftl/serve/json.hpp"
#include "ftl/util/error.hpp"
#include "pipeline.hpp"
#include "workloads.hpp"

namespace bench_e2e {

using ftl::serve::JsonValue;

namespace {

/// Owns a file descriptor.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ftl::Error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

bool close_to(double a, double b) {
  if (a == b || (std::isnan(a) && std::isnan(b))) return true;
  return std::fabs(a - b) <= 1e-6 * std::max(std::fabs(a), std::fabs(b));
}

/// Empty when `got` matches `want` within relative tolerance 1e-6.
std::string compare(const ftl::jobs::Artifact& got,
                    const ftl::jobs::Artifact& want) {
  if (got.columns != want.columns) return "columns differ";
  if (got.rows.size() != want.rows.size()) return "row counts differ";
  for (std::size_t r = 0; r < got.rows.size(); ++r) {
    if (got.rows[r].size() != want.rows[r].size()) return "row widths differ";
    for (std::size_t c = 0; c < got.rows[r].size(); ++c) {
      if (!close_to(got.rows[r][c], want.rows[r][c])) {
        return "row " + std::to_string(r) + " column " + want.columns[c] + " differs";
      }
    }
  }
  if (got.scalars.size() != want.scalars.size()) return "scalar sets differ";
  for (const auto& [name, value] : want.scalars) {
    const auto it = got.scalars.find(name);
    if (it == got.scalars.end() || !close_to(it->second, value)) {
      return "scalar " + name + " differs";
    }
  }
  if (got.notes != want.notes) return "notes differ";
  return {};
}

struct JobEvent {
  std::string type;
  std::string detail;
  std::uint64_t key = 0;
};

/// job name -> its job_finish or cache_hit event.
std::map<std::string, JobEvent> job_events(const Invocation& inv) {
  std::map<std::string, JobEvent> jobs;
  for (const JsonValue& ev : inv.events) {
    const std::string type = ev.string_or("ev", "");
    if (type != "job_finish" && type != "cache_hit") continue;
    JobEvent je;
    je.type = type;
    je.detail = ev.string_or("detail", "");
    je.key = std::strtoull(ev.string_or("key", "0").c_str(), nullptr, 16);
    jobs[ev.string_or("job", "?")] = je;
  }
  return jobs;
}

}  // namespace

Invocation run_pipeline(bool quick, const std::string& cache_dir,
                        const std::string& fifo) {
  ::unlink(fifo.c_str());
  if (::mkfifo(fifo.c_str(), 0600) != 0) {
    throw ftl::Error("mkfifo " + fifo + ": " + std::strerror(errno));
  }
  // Opened before the spawn so the writer never blocks; a FIFO read end
  // reports neither data nor hang-up until a writer has connected.
  const Fd events(::open(fifo.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC));
  if (events.get() < 0) throw ftl::Error("cannot open " + fifo);
  std::vector<std::string> argv = {kRunBin, "--jobs", "4", "--cache-dir",
                                   cache_dir, "--events", fifo};
  if (quick) argv.emplace_back("--quick");

  Invocation inv;
  inv.setup_ms = std::numeric_limits<double>::quiet_NaN();
  const Clock::time_point t0 = Clock::now();
  inv.spawned = t0;
  Child child(argv, false);
  std::string buf;
  bool open = true;
  bool ended = false;
  while (open && !ended) {
    if (s_between(t0, Clock::now()) > 600.0) break;
    pollfd p[2] = {{events.get(), POLLIN, 0}, {child.exit_fd(), POLLIN, 0}};
    ::poll(p, child.exit_fd() >= 0 ? 2 : 1, 100);
    ended = (p[1].revents & POLLIN) != 0;
    if ((p[0].revents & (POLLIN | POLLHUP)) == 0 && !ended) continue;
    const Clock::time_point now = Clock::now();
    if (const double mb = peak_rss_mb(child.pid()); !std::isnan(mb)) {
      inv.peak_rss_mb = mb;
    }
    char chunk[65536];
    while (true) {
      const ssize_t n = ::read(events.get(), chunk, sizeof chunk);
      if (n > 0) {
        buf.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0 && (p[0].revents & POLLHUP) != 0) open = false;
      break;
    }
    std::size_t begin = 0;
    for (std::size_t nl = buf.find('\n'); nl != std::string::npos;
         nl = buf.find('\n', begin)) {
      const std::string_view line(buf.data() + begin, nl - begin);
      if (std::isnan(inv.setup_ms) && line.find("\"run_start\"") != std::string_view::npos) {
        inv.setup_ms = ms_between(t0, now);
      }
      inv.events.push_back(JsonValue::parse(line));
      begin = nl + 1;
    }
    buf.erase(0, begin);
  }
  inv.exit = child.wait(60.0);
  inv.wall_ms = ms_between(t0, inv.exit.at);
  ::unlink(fifo.c_str());
  return inv;
}

int check_invocation(const Invocation& inv, bool cold,
                     const std::string& cache_dir,
                     const std::map<std::string, std::string>& golden,
                     Outcome& out) {
  const char* what = cold ? "cold run" : "warm rerun";
  if (!inv.exit.clean) out.fail(std::string("ftl_run ") + what + " ended with " + inv.exit.how);
  if (std::isnan(inv.setup_ms)) out.fail(std::string(what) + " emitted no run_start event");
  const std::map<std::string, JobEvent> jobs = job_events(inv);
  for (const auto& [name, ev] : jobs) {
    if (golden.count(name) == 0) out.fail("job " + name + " has no golden artifact");
  }
  int bitexact = 0;
  const ftl::jobs::ResultCache cache(cache_dir);
  for (const auto& [name, want] : golden) {
    const auto it = jobs.find(name);
    if (it == jobs.end()) {
      out.fail(std::string(what) + " did not report job " + name);
      continue;
    }
    if (!cold) {
      if (it->second.type != "cache_hit") out.fail("warm rerun recomputed " + name);
      continue;
    }
    if (it->second.type != "job_finish" || it->second.detail != "succeeded") {
      out.fail("cold run job " + name + ": " + it->second.detail);
      continue;
    }
    const std::optional<ftl::jobs::Artifact> got = cache.load(name, it->second.key);
    if (!got) {
      out.fail("artifact of " + name + " is not in the cache");
      continue;
    }
    const std::string why = compare(*got, ftl::jobs::Artifact::deserialize(want));
    if (!why.empty()) out.fail("artifact of " + name + " differs from golden: " + why);
    bitexact += got->serialize() == want ? 1 : 0;
  }
  return bitexact;
}

std::map<std::string, std::string> load_golden(bool quick) {
  const std::string dir = std::string(kGoldenDir) + (quick ? "/quick" : "/full");
  std::map<std::string, std::string> golden;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() != ".art") continue;
    golden[entry.path().stem().string()] = read_file(entry.path().string());
  }
  if (golden.empty()) throw ftl::Error("no golden artifacts in " + dir);
  return golden;
}

Outcome run_figures(const Options& opts) {
  Outcome out;
  out.workload = "figures";
  const bool quick = opts.smoke;
  const std::map<std::string, std::string> golden = load_golden(quick);
  const std::string dir = opts.work_dir + "/figures";
  remove_tree(dir);
  make_dirs(dir);
  const std::string fifo = dir + "/events.fifo";
  // Each cold run (~4-5 s at full size) is followed by its share of the
  // warm reruns, so both kinds are spread over the whole run rather than
  // all landing in one stretch of host speed.
  const int cold_runs = opts.smoke ? 1 : std::max(3, static_cast<int>(opts.seconds / 5));
  const int warm_per_cold = opts.smoke ? 3 : 20;

  std::vector<double> setup_ms;
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  double peak_rss = 0.0;
  int bitexact = 0;
  const auto record = [&](const Invocation& inv, std::vector<double>& walls) {
    setup_ms.push_back(inv.setup_ms);
    walls.push_back(inv.wall_ms);
    peak_rss = std::max(peak_rss, inv.peak_rss_mb);
    out.attempted += golden.size();
  };
  for (int i = 0; i < cold_runs; ++i) {
    const std::string cache_dir = dir + "/cold" + std::to_string(i);
    const Invocation cold = run_pipeline(quick, cache_dir, fifo);
    record(cold, cold_ms);
    bitexact = check_invocation(cold, true, cache_dir, golden, out);
    for (int k = 0; k < warm_per_cold; ++k) {
      const Invocation warm = run_pipeline(quick, cache_dir, fifo);
      record(warm, warm_ms);
      check_invocation(warm, false, cache_dir, golden, out);
    }
    remove_tree(cache_dir);
  }
  remove_tree(dir);

  // Every repetition runs the same deterministic computation, so the
  // spread between them is the host's; a slowed host only ever adds time,
  // and the fastest repetition is the steadiest estimate of the cost.
  const double fastest_cold = *std::min_element(cold_ms.begin(), cold_ms.end());
  const double fastest_warm = *std::min_element(warm_ms.begin(), warm_ms.end());
  out.add("setup_s", median(setup_ms) / 1000.0, "s", setup_ms.size());
  out.add("throughput_rps", 1000.0 * static_cast<double>(golden.size()) / fastest_cold,
          "req/s", cold_ms.size());
  out.add("latency_p50_ms", fastest_warm, "ms", warm_ms.size());
  out.add("latency_p99_ms", fastest_cold, "ms", cold_ms.size());
  out.add("peak_rss_mb", peak_rss, "MB", setup_ms.size());
  out.add("figures.cold_median_ms", median(cold_ms), "ms", cold_ms.size());
  out.add("figures.warm_median_ms", median(warm_ms), "ms", warm_ms.size());
  out.add("figures.bitexact_jobs", bitexact, "count", golden.size());
  return out;
}

int write_golden(const Options& opts) {
  for (const bool quick : {false, true}) {
    const std::string preset = quick ? "quick" : "full";
    const std::string run_dir = opts.work_dir + "/golden-" + preset;
    remove_tree(run_dir);
    make_dirs(run_dir);
    const Invocation inv =
        run_pipeline(quick, run_dir + "/cache", run_dir + "/events.fifo");
    if (!inv.exit.clean) {
      std::fprintf(stderr, "bench_e2e: ftl_run (%s) ended with %s\n",
                   preset.c_str(), inv.exit.how.c_str());
      return 1;
    }
    const std::string out_dir = std::string(kGoldenDir) + "/" + preset;
    remove_tree(out_dir);
    make_dirs(out_dir);
    const ftl::jobs::ResultCache cache(run_dir + "/cache");
    int written = 0;
    for (const auto& [name, ev] : job_events(inv)) {
      const std::optional<ftl::jobs::Artifact> art = cache.load(name, ev.key);
      if (ev.type != "job_finish" || !art) {
        std::fprintf(stderr, "bench_e2e: job %s produced no artifact\n", name.c_str());
        return 1;
      }
      std::ofstream(out_dir + "/" + name + ".art", std::ios::binary) << art->serialize();
      ++written;
    }
    remove_tree(run_dir);
    std::printf("golden %s: %d artifacts -> %s\n", preset.c_str(), written,
                out_dir.c_str());
  }
  return 0;
}

}  // namespace bench_e2e
