// serve_synth, serve_sim and serve_warm: a fresh `ftl_serve --port 0` with
// default options per run, driven over TCP by one generator thread on four
// connections (closed loop), every reply checked after the window.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "ftl/serve/client.hpp"
#include "ftl/util/error.hpp"
#include "gen.hpp"
#include "loop.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace bench_e2e {

using ftl::serve::Client;
using ftl::serve::JsonValue;

namespace {

constexpr int kConnections = 4;

// Pregenerated lines per second of window. They cover several times the
// rates the current code reaches (~2.5k, ~150 and ~460k req/s with 2% of
// the last being twins); a run that still exhausts them fails instead of
// cycling, because a cycled line is a cache hit.
constexpr double kSynthLinesPerS = 10000;
constexpr double kSimLinesPerS = 1500;
constexpr double kTwinLinesPerS = 24000;

/// One answered request of the window.
struct Sample {
  float at_s = 0.0f;        ///< reply arrival, seconds into the window
  float latency_us = 0.0f;  ///< send to reply
  bool ok = false;          ///< passed its checks
};

/// Reads the server's peak RSS when its `after`-th window reply arrives.
/// Every serve_synth reply and every serve_warm twin adds a cache entry,
/// so a peak taken after a fixed amount of work, unlike one taken at the
/// end, does not grow with throughput. A window too short to get there
/// falls back to the peak at its end.
class RssProbe {
 public:
  RssProbe(pid_t pid, std::uint64_t after) : pid_(pid), after_(after) {}
  void tick() {
    if (++replies_ == after_) mb_ = peak_rss_mb(pid_);
  }
  double mb() const { return std::isnan(mb_) ? peak_rss_mb(pid_) : mb_; }

 private:
  pid_t pid_;
  std::uint64_t after_;
  std::uint64_t replies_ = 0;
  double mb_ = std::nan("");
};

double stats_at(const JsonValue& v, std::initializer_list<const char*> path) {
  const JsonValue* at = &v;
  for (const char* key : path) {
    at = at->find(key);
    if (at == nullptr) return 0.0;
  }
  return at->is_number() ? at->as_number() : 0.0;
}

/// The `stats` op's reply.
JsonValue stats_of(int port) {
  Client client("127.0.0.1", port);
  return JsonValue::parse(client.call_line(R"({"op":"stats"})"));
}

/// Starts and stops ftl_serve a few times, adding each spawn-to-ready time
/// to `ready`. Run before and after the window, so that setup_s, the median
/// of these and the window server's, spans the run rather than one moment.
void time_spawns(const Options& opts, std::vector<double>& ready, Outcome& out) {
  for (int i = 0; i < (opts.smoke ? 1 : 5); ++i) {
    Served s = start_served();
    ready.push_back(s.ready_s);
    const Child::Exit exit = stop_served(s);
    if (!exit.clean) out.fail("a set-up ftl_serve ended with " + exit.how);
  }
}

/// Re-sends `lines` after the window; each reply must repeat the bytes the
/// window got for it (cached == computed).
void resend(int port, const std::vector<const std::string*>& lines,
            const std::vector<const std::string*>& replies, Outcome& out) {
  Client client("127.0.0.1", port);
  for (std::size_t at = 0; at < lines.size(); at += 16) {
    std::vector<std::string> batch;
    for (std::size_t i = at; i < lines.size() && i < at + 16; ++i) {
      batch.push_back(*lines[i]);
    }
    client.send_lines(batch);
    for (std::size_t i = at; i < at + batch.size(); ++i) {
      ++out.attempted;
      if (client.recv_line() != *replies[i]) {
        out.fail("re-sent request got different bytes: " + lines[i]->substr(0, 160));
      }
    }
  }
}

/// throughput_rps, latency_p50_ms and latency_p99_ms. The window is cut
/// into `slices` equal parts and each metric is the median of its value
/// per slice, so a few seconds of a slowed host move it less than they
/// would move one whole-window figure. Replies count toward the slice they
/// arrived in, latencies toward the slice their request left in.
void report_window(Outcome& out, const std::vector<Sample>& samples,
                   double seconds, int slices) {
  const double width = seconds / slices;
  std::vector<double> ok(static_cast<std::size_t>(slices), 0.0);
  std::vector<std::vector<float>> latency(static_cast<std::size_t>(slices));
  std::size_t ok_total = 0;
  for (const Sample& s : samples) {
    if (s.ok && s.at_s <= seconds) {
      ok[std::min(static_cast<std::size_t>(s.at_s / width), ok.size() - 1)] += 1;
      ++ok_total;
    }
    const double sent = std::max(0.0, static_cast<double>(s.at_s) - s.latency_us * 1e-6);
    latency[std::min(static_cast<std::size_t>(sent / width), latency.size() - 1)]
        .push_back(s.latency_us);
  }
  std::vector<double> rate, p50, p99;
  for (std::size_t i = 0; i < latency.size(); ++i) {
    rate.push_back(ok[i] / width);
    p50.push_back(quantile_inplace(latency[i], 0.5) / 1000.0);
    p99.push_back(quantile_inplace(latency[i], 0.99) / 1000.0);
  }
  out.add("throughput_rps", median(rate), "req/s", ok_total);
  out.add("latency_p50_ms", median(p50), "ms", samples.size());
  out.add("latency_p99_ms", median(p99), "ms", samples.size());
  const std::size_t per_slice = samples.size() / static_cast<std::size_t>(slices);
  if (per_slice < 1000) {
    std::fprintf(stderr, "bench_e2e: %s p99 rests on %zu < 1000 samples per slice\n",
                 out.workload.c_str(), per_slice);
  }
}

/// The rows every serve workload reports after its window metrics.
void report_run(Outcome& out, double rss_mb, const PhaseStats& window,
                const Child::Exit& exit, const JsonValue& before,
                const JsonValue& after) {
  out.add("peak_rss_mb", rss_mb, "MB", 1);
  if (!exit.clean) out.fail("ftl_serve ended with " + exit.how);
  if (window.ran_out) out.fail("the pregenerated lines ran out in the window");
  if (!window.error.empty()) out.fail("transport: " + window.error);
  const double cpu_frac = window.gen_cpu_s / window.wall_s;
  out.add("gen.cpu_frac", cpu_frac, "ratio", 1);
  if (cpu_frac > 0.8) {
    std::fprintf(stderr,
                 "bench_e2e: %s generator CPU share %.2f > 0.8: the generator, "
                 "not the server, may set the throughput\n",
                 out.workload.c_str(), cpu_frac);
  }
  const auto delta = [&](std::initializer_list<const char*> path) {
    return stats_at(after, path) - stats_at(before, path);
  };
  out.add("serve.admission_rejects", delta({"stats", "total", "outcomes", "overloaded"}),
          "count", 1);
  const double rejects = delta({"library_core", "verify_rejects"});
  out.add("library.verify_rejects", rejects, "count", 1);
  if (rejects != 0) out.fail("the lattice library rejected a stored lattice");
}

/// Closed-loop traffic over a pregenerated pool of unique lines; keeps
/// every reply for the oracles.
class PoolTraffic : public Traffic {
 public:
  PoolTraffic(const std::vector<Request>& pool, RssProbe* rss)
      : pool_(pool), rss_(rss), replies_(pool.size()), samples_(pool.size()) {}

  bool next(int, std::string& out, std::uint64_t& tag) override {
    if (next_ == pool_.size()) return false;
    out += pool_[next_].line;
    tag = next_++;
    return true;
  }

  void reply(std::uint64_t tag, std::string_view response, double latency_us,
             double at_s) override {
    replies_[tag].assign(response);
    samples_[tag].at_s = static_cast<float>(at_s);
    samples_[tag].latency_us = static_cast<float>(latency_us);
    samples_[tag].ok = true;  // until the oracles say otherwise
    if (rss_ != nullptr) rss_->tick();
  }

  /// Checks every sent request's reply; failures count into `out`.
  void check(Outcome& out) {
    out.attempted += next_;
    const auto failures = check_all(next_, [&](std::size_t i) -> std::string {
      if (!samples_[i].ok) return std::string("no reply to ") + op_name(pool_[i].op);
      return check_reply(pool_[i], replies_[i]);
    });
    for (const auto& [i, why] : failures) {
      samples_[i].ok = false;
      out.fail(why);
    }
  }

  /// The answered requests' samples.
  std::vector<Sample> samples() const {
    std::vector<Sample> out;
    for (std::size_t i = 0; i < next_; ++i) {
      if (!replies_[i].empty()) out.push_back(samples_[i]);
    }
    return out;
  }

  /// Window latency per op: mean, p50 and p99, with the sample count.
  void report_ops(Outcome& out) const {
    std::map<std::string, std::vector<float>> by_op;
    for (std::size_t i = 0; i < next_; ++i) {
      if (!replies_[i].empty()) by_op[op_name(pool_[i].op)].push_back(samples_[i].latency_us);
    }
    for (auto& [op, lat] : by_op) {
      double sum = 0.0;
      for (const float us : lat) sum += us;
      const std::string prefix = "op." + op;
      out.add(prefix + ".mean_ms", sum / static_cast<double>(lat.size()) / 1000.0, "ms", lat.size());
      out.add(prefix + ".p50_ms", quantile_inplace(lat, 0.5) / 1000.0, "ms", lat.size());
      out.add(prefix + ".p99_ms", quantile_inplace(lat, 0.99) / 1000.0, "ms", lat.size());
    }
  }

  /// Every 100th answered request, for the post-window re-send.
  void sample(std::vector<const std::string*>& lines,
              std::vector<const std::string*>& replies) const {
    for (std::size_t i = 37; i < next_; i += 100) {
      if (replies_[i].empty()) continue;
      lines.push_back(&pool_[i].line);
      replies.push_back(&replies_[i]);
    }
  }

 private:
  const std::vector<Request>& pool_;
  RssProbe* rss_;
  std::vector<std::string> replies_;
  std::vector<Sample> samples_;
  std::size_t next_ = 0;
};

/// serve_synth and serve_sim: an optional untimed warm-up on its own pool,
/// then the window on the same four connections, one request outstanding
/// on each.
Outcome run_pooled(const Options& opts, const char* name,
                   const std::vector<Request>& warmup, double warmup_s,
                   const std::vector<Request>& pool, int slices,
                   std::uint64_t rss_after) {
  Outcome out;
  out.workload = name;
  std::vector<double> ready;
  time_spawns(opts, ready, out);
  Served server = start_served();
  ready.push_back(server.ready_s);
  RssProbe rss(server.child->pid(), rss_after);
  PoolTraffic warm_traffic(warmup, nullptr);
  PoolTraffic traffic(pool, &rss);
  JsonValue before;
  JsonValue after;
  PhaseStats window;
  {
    ClosedLoop load(server.port, kConnections);
    if (!warmup.empty()) {
      const PhaseStats w = load.run(1, warmup_s, warm_traffic);
      if (w.ran_out) out.fail("the pregenerated warm-up lines ran out");
      if (!w.error.empty()) out.fail("transport during warm-up: " + w.error);
    }
    before = stats_of(server.port);
    window = load.run(1, opts.seconds, traffic);
    after = stats_of(server.port);
  }
  std::vector<const std::string*> lines;
  std::vector<const std::string*> replies;
  traffic.sample(lines, replies);
  resend(server.port, lines, replies, out);
  const double rss_mb = rss.mb();
  const Child::Exit exit = stop_served(server);
  time_spawns(opts, ready, out);
  out.add("setup_s", median(ready), "s", ready.size());

  warm_traffic.check(out);
  traffic.check(out);
  report_window(out, traffic.samples(), opts.seconds, slices);
  report_run(out, rss_mb, window, exit, before, after);
  traffic.report_ops(out);
  return out;
}

/// serve_warm's traffic (see WarmMix). Repeats are compared byte for byte
/// with the warm set's replies as they arrive; twin replies are kept for
/// the oracles.
class WarmTraffic : public Traffic {
 public:
  WarmTraffic(const std::vector<Request>& warm,
              const std::vector<std::string>& expected,
              const std::vector<Request>& twins, Rng rng, RssProbe& rss,
              std::size_t expect)
      : expected_(expected), twins_(twins), mix_(rng, warm, twins), rss_(rss),
        twin_replies_(twins.size()), twin_sample_(twins.size()) {
    samples_.reserve(expect);
  }

  bool next(int, std::string& out, std::uint64_t& tag) override {
    WarmMix::Pick pick;
    if (!mix_.next(pick, out)) return false;
    switch (pick.kind) {
      case WarmMix::Kind::kRepeat: tag = pick.index; break;
      case WarmMix::Kind::kWithId: tag = kIdTag | (pick.id << 9) | pick.index; break;
      case WarmMix::Kind::kTwin:
        tag = kTwinTag | pick.index;
        twins_sent_ = pick.index + 1;
        break;
    }
    return true;
  }

  void reply(std::uint64_t tag, std::string_view response, double latency_us,
             double at_s) override {
    rss_.tick();
    Sample sample{static_cast<float>(at_s), static_cast<float>(latency_us), true};
    if (tag & kTwinTag) {
      const std::size_t j = tag & ~kTwinTag;
      twin_replies_[j].assign(response);
      twin_sample_[j] = samples_.size();
    } else {
      const std::string& want = expected_[tag & 0x1ff];
      if (tag & kIdTag) {
        char prefix[40];
        const int len = std::snprintf(prefix, sizeof prefix, "{\"id\":%llu,",
                                      static_cast<unsigned long long>((tag & ~kIdTag) >> 9));
        const std::string_view p(prefix, static_cast<std::size_t>(len));
        sample.ok = response.size() == p.size() + want.size() - 1 &&
                    response.substr(0, p.size()) == p &&
                    response.substr(p.size()) == std::string_view(want).substr(1);
      } else {
        sample.ok = response == want;
      }
      if (!sample.ok && mismatches_.size() < 5) {
        mismatches_.emplace_back(response.substr(0, 160));
      }
      mismatch_count_ += sample.ok ? 0 : 1;
    }
    samples_.push_back(sample);
  }

  void check(Outcome& out) {
    out.attempted += samples_.size();
    for (std::uint64_t k = 0; k < mismatch_count_; ++k) {
      out.fail("repeat reply differs from the warm-set reply" +
               (k < mismatches_.size() ? ": " + mismatches_[k] : std::string()));
    }
    const auto failures = check_all(twins_sent_, [&](std::size_t j) -> std::string {
      if (twin_replies_[j].empty()) return "no reply to an NPN-twin synth";
      return check_reply(twins_[j], twin_replies_[j]);
    });
    for (const auto& [j, why] : failures) {
      if (!twin_replies_[j].empty()) samples_[twin_sample_[j]].ok = false;
      out.fail(why);
    }
  }

  void sample(std::vector<const std::string*>& lines,
              std::vector<const std::string*>& replies) const {
    for (std::size_t j = 0; j < twins_sent_; j += 100) {
      if (twin_replies_[j].empty()) continue;
      lines.push_back(&twins_[j].line);
      replies.push_back(&twin_replies_[j]);
    }
  }

  const std::vector<Sample>& samples() const { return samples_; }

 private:
  static constexpr std::uint64_t kIdTag = std::uint64_t{1} << 62;
  static constexpr std::uint64_t kTwinTag = std::uint64_t{1} << 63;

  const std::vector<std::string>& expected_;
  const std::vector<Request>& twins_;
  WarmMix mix_;
  RssProbe& rss_;
  std::size_t twins_sent_ = 0;
  std::vector<std::string> twin_replies_;
  std::vector<std::size_t> twin_sample_;  ///< twin -> its entry in samples_
  std::vector<Sample> samples_;
  std::uint64_t mismatch_count_ = 0;
  std::vector<std::string> mismatches_;
};

}  // namespace

Served start_served() {
  Served s;
  const Clock::time_point t0 = Clock::now();
  s.child = std::make_unique<Child>(
      std::vector<std::string>{kServeBin, "--port", "0"}, true);
  const std::string marker = "listening on 127.0.0.1:";
  while (s.port == 0) {
    const std::optional<std::string> line = s.child->read_line(30.0);
    if (!line) throw ftl::Error("ftl_serve did not report a listening port");
    const std::size_t at = line->find(marker);
    if (at != std::string::npos) {
      s.port = std::atoi(line->c_str() + at + marker.size());
    }
  }
  Client client("127.0.0.1", s.port);
  const JsonValue pong = JsonValue::parse(client.call_line(R"({"op":"ping"})"));
  if (!pong.bool_or("ok", false)) {
    throw ftl::Error("ftl_serve did not answer its ping");
  }
  s.ready_s = s_between(t0, Clock::now());
  return s;
}

Child::Exit stop_served(Served& served) {
  try {
    Client client("127.0.0.1", served.port);
    client.call_line(R"({"op":"shutdown"})");
  } catch (const std::exception&) {
    // The wait below kills a server that did not take the request.
  }
  return served.child->wait(30.0);
}

Outcome run_serve_synth(const Options& opts) {
  const double warmup_s = opts.smoke ? 0.2 : 2.0;
  Seen seen;
  Rng warm_rng(opts.seed, 11);
  Rng rng(opts.seed, 12);
  const std::vector<Request> warmup = synth_mix(
      warm_rng, static_cast<std::size_t>(kSynthLinesPerS * warmup_s), seen);
  const std::vector<Request> pool = synth_mix(
      rng, static_cast<std::size_t>(kSynthLinesPerS * opts.seconds), seen);
  return run_pooled(opts, "serve_synth", warmup, warmup_s, pool,
                    static_cast<int>(opts.seconds), 10'000);
}

Outcome run_serve_sim(const Options& opts) {
  Seen seen;
  Rng rng(opts.seed, 21);
  std::uint64_t counter = 0;
  const std::vector<Request> pool = sim_mix(
      rng, static_cast<std::size_t>(kSimLinesPerS * opts.seconds), seen, counter);
  // ~150 req/s: one slice, so its p99 rests on more than 1000 samples.
  return run_pooled(opts, "serve_sim", {}, 0.0, pool, 1, 600);
}

Outcome run_serve_warm(const Options& opts) {
  Outcome out;
  out.workload = "serve_warm";
  Seen seen;
  Rng warm_rng(opts.seed, 31);
  Rng twin_rng(opts.seed, 32);
  const std::vector<Request> warm = warm_set(warm_rng, seen);
  const std::vector<Request> twins = npn_twins(
      twin_rng, warm, static_cast<std::size_t>(kTwinLinesPerS * opts.seconds), seen);

  std::vector<double> ready;
  time_spawns(opts, ready, out);
  Served server = start_served();
  ready.push_back(server.ready_s);
  // The warm set, untimed: each line computed once fills the line cache,
  // the memo and (for synth) the lattice library.
  std::vector<std::string> expected;
  {
    Client client("127.0.0.1", server.port);
    for (const Request& r : warm) expected.push_back(client.call_line(r.line));
  }
  out.attempted += warm.size();
  for (const auto& [i, why] : check_all(warm.size(), [&](std::size_t i) {
         return check_reply(warm[i], expected[i]);
       })) {
    out.fail("warm set: " + why);
  }

  RssProbe rss(server.child->pid(), 1'500'000);
  WarmTraffic traffic(warm, expected, twins, Rng(opts.seed, 33), rss,
                      static_cast<std::size_t>(8e5 * opts.seconds));
  const JsonValue before = stats_of(server.port);
  PhaseStats window;
  {
    ClosedLoop load(server.port, kConnections);
    window = load.run(16, opts.seconds, traffic);
  }
  const JsonValue after = stats_of(server.port);
  std::vector<const std::string*> lines;
  std::vector<const std::string*> replies;
  traffic.sample(lines, replies);
  resend(server.port, lines, replies, out);
  const double rss_mb = rss.mb();
  const Child::Exit exit = stop_served(server);
  time_spawns(opts, ready, out);
  out.add("setup_s", median(ready), "s", ready.size());

  traffic.check(out);
  report_window(out, traffic.samples(), opts.seconds, static_cast<int>(opts.seconds));
  report_run(out, rss_mb, window, exit, before, after);
  return out;
}

}  // namespace bench_e2e
