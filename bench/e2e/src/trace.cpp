// The traced replay (--trace 1): the generated inputs of the serve
// workloads replayed in-process twice — once through Service::handle_now
// (untraced; its replies are checked by the oracles and give the in-process
// time per request and the stats-op counter deltas per op), once through
// each module's public functions, mirroring the op handlers, with one span
// per call. The figure DAG runs through ftl_run with its job telemetry
// turned into spans. Every trace run reports every per-layer metric, so
// each replays a sample of every workload's inputs: the full sample of its
// own workload, a smaller one of the others (the figure DAG at its --quick
// size unless the workload is figures).

#include <cstdio>
#include <latch>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ftl/bridge/metrics.hpp"
#include "ftl/bridge/variability.hpp"
#include "ftl/check/lattice.hpp"
#include "ftl/check/lattice_sat.hpp"
#include "ftl/designer/designer.hpp"
#include "ftl/jobs/pipeline.hpp"
#include "ftl/lattice/function.hpp"
#include "ftl/lattice/paths.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/library/npn.hpp"
#include "ftl/library/store.hpp"
#include "ftl/library/synthesize.hpp"
#include "ftl/logic/expr_parser.hpp"
#include "ftl/serve/client.hpp"
#include "ftl/serve/service.hpp"
#include "ftl/util/error.hpp"
#include "gen.hpp"
#include "oracle.hpp"
#include "pipeline.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace bench_e2e {

namespace {

using ftl::serve::JsonValue;
using Counters = std::map<std::string, double>;

/// The stats op's counter sections, flattened to "section.key".
Counters counters_of(ftl::serve::Service& service) {
  const JsonValue stats = JsonValue::parse(service.handle_now(R"({"op":"stats"})"));
  Counters out;
  for (const char* section : {"eval_core", "cache_core", "sat_core",
                              "spice_core", "batch_core", "library_core"}) {
    const JsonValue* s = stats.find(section);
    if (s == nullptr || !s->is_object()) continue;
    for (const auto& [key, value] : s->members()) {
      if (value.is_number()) out[std::string(section) + "." + key] = value.as_number();
    }
  }
  return out;
}

void accumulate(Counters& sum, const Counters& before, const Counters& after) {
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    sum[key] += value - (it == before.end() ? 0.0 : it->second);
  }
}

double get(const Counters& c, const char* key) {
  const auto it = c.find(key);
  return it == c.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The traced half of the replay: the spans, the replay's own lattice
/// library (it starts empty, like the Service's, and sees the same
/// requests in the same order), and the outcomes that feed ratios.
struct Replay {
  Tracer tracer;
  ftl::library::LatticeLibrary lib;
  std::vector<std::size_t> lookup_hits;  ///< library.lookup_only spans that hit
  std::uint64_t sat_attempts = 0;
  std::uint64_t sat_useful = 0;          ///< found or proven infeasible
  std::vector<double> root_us;           ///< serve.request durations, cold lines
};

using Scope = Tracer::Scope;

std::vector<std::string> vars_of(const JsonValue& req) {
  std::vector<std::string> names;
  if (const JsonValue* v = req.find("vars")) {
    for (const JsonValue& n : v->items()) names.push_back(n.as_string());
  }
  return names;
}

ftl::logic::ParsedFunction parse(Replay& r, const JsonValue& req,
                                 std::uint64_t id) {
  const Scope s(r.tracer, "logic.parse_expression", id);
  return ftl::logic::parse_expression(req.find("expr")->as_string(), vars_of(req));
}

ftl::lattice::Lattice altun(Replay& r, const ftl::logic::ParsedFunction& f,
                            std::uint64_t id) {
  const Scope s(r.tracer, "lattice.altun_riedel_synthesis", id);
  return ftl::lattice::altun_riedel_synthesis(f.table, f.var_names);
}

/// library::synthesize's front half: canonicalize, then look the class up.
std::optional<ftl::lattice::Lattice> lookup(Replay& r,
                                            const ftl::logic::ParsedFunction& f,
                                            int rows, int cols,
                                            ftl::library::NpnCanonical& canon,
                                            std::uint64_t& key, std::uint64_t id) {
  {
    const Scope s(r.tracer, "library.canonicalize", id);
    canon = ftl::library::canonicalize(f.table);
    key = ftl::library::npn_key(canon.canonical);
  }
  const Scope s(r.tracer, "library.lookup_only", id);
  std::optional<ftl::lattice::Lattice> hit =
      ftl::library::lookup_only(r.lib, f.table, f.var_names, rows, cols);
  if (hit) r.lookup_hits.push_back(s.span());
  return hit;
}

/// library::synthesize's back half: offer an engine result to the class
/// slot of its output phase.
void populate(Replay& r, const ftl::library::NpnCanonical& canon,
              std::uint64_t key, const ftl::lattice::Lattice& lat,
              const char* engine, std::uint64_t seed, std::uint64_t id) {
  const Scope s(r.tracer, "library.populate", id);
  const bool phase = canon.transform.output_negation;
  ftl::library::LibraryEntry entry;
  entry.lattice = ftl::library::relabel_lattice(
      lat, canon.transform.without_output_negation());
  entry.engine = engine;
  entry.seed = seed;
  if (ftl::lattice::realizes(entry.lattice,
                             phase ? ~canon.canonical : canon.canonical)) {
    r.lib.insert(key, canon.canonical, phase, std::move(entry));
  }
}

void realized_table(Replay& r, const ftl::lattice::Lattice& lat,
                    std::uint64_t id) {
  const Scope s(r.tracer, "lattice.realized_truth_table", id);
  ftl::lattice::realized_truth_table(lat);
}

ftl::lattice::Lattice lattice_spec(Replay& r, const JsonValue& req,
                                   std::uint64_t id) {
  const Scope s(r.tracer, "serve.lattice_spec_from", id);
  return ftl::serve::lattice_spec_from(req).lat;
}

ftl::bridge::MeasureOptions measure_options(const JsonValue& req) {
  ftl::bridge::MeasureOptions o;
  o.phase_time = req.number_or("phase_ns", 40.0) * 1e-9;
  o.dt = req.number_or("dt_ns", 0.2) * 1e-9;
  return o;
}

/// The op's work, one span per public call, in the handler's order.
void replay_op(Replay& r, const Request& q, const JsonValue& req,
               std::uint64_t id) {
  switch (q.op) {
    case Op::kEvalCells:
      realized_table(r, lattice_spec(r, req, id), id);
      return;
    case Op::kEvalExpr:
      realized_table(r, altun(r, parse(r, req, id), id), id);
      return;
    case Op::kSynth: {
      const ftl::logic::ParsedFunction f = parse(r, req, id);
      ftl::library::NpnCanonical canon;
      std::uint64_t key = 0;
      std::optional<ftl::lattice::Lattice> lat = lookup(r, f, 0, 0, canon, key, id);
      if (!lat) {
        lat = altun(r, f, id);
        populate(r, canon, key, *lat, "altun", 0, id);
      }
      {
        const Scope s(r.tracer, "lattice.realizes", id);
        ftl::lattice::realizes(*lat, f.table);
      }
      const Scope s(r.tracer, "lattice.count_products", id);
      ftl::lattice::count_products(lat->rows(), lat->cols());
      return;
    }
    case Op::kSynthSat: {
      const ftl::logic::ParsedFunction f = parse(r, req, id);
      ftl::library::NpnCanonical canon;
      std::uint64_t key = 0;
      if (lookup(r, f, q.rows, q.cols, canon, key, id)) return;
      ftl::lattice::SatSynthesisOptions o;
      o.seed = static_cast<std::uint64_t>(req.number_or("seed", 1.0));
      o.max_conflicts = static_cast<std::int64_t>(req.number_or("max_conflicts", 2e6));
      o.certify = req.bool_or("certify", false);
      ftl::lattice::SatSynthesisResult res;
      {
        const Scope s(r.tracer, "lattice.synth_sat", id);
        res = ftl::lattice::synth_sat(f.table, q.rows, q.cols, o, f.var_names);
      }
      ++r.sat_attempts;
      if (res.lattice || res.proven_infeasible) ++r.sat_useful;
      if (res.lattice) populate(r, canon, key, *res.lattice, "sat", o.seed, id);
      return;
    }
    case Op::kLint: {
      const ftl::lattice::Lattice lat = lattice_spec(r, req, id);
      {
        const Scope s(r.tracer, "check.check_lattice", id);
        ftl::check::check_lattice(lat);
      }
      ftl::check::LatticeSatAuditOptions audit;
      audit.certify = true;
      const Scope s(r.tracer, "check.audit_lattice_sat", id);
      ftl::check::audit_lattice_sat(lat, audit);
      return;
    }
    case Op::kMetrics: {
      const ftl::logic::ParsedFunction f = parse(r, req, id);
      const ftl::lattice::Lattice lat = altun(r, f, id);
      const Scope s(r.tracer, "bridge.measure_resistor_gate", id);
      ftl::bridge::measure_resistor_gate(lat, f.table, measure_options(req));
      return;
    }
    case Op::kSweep: {
      const ftl::logic::ParsedFunction f = parse(r, req, id);
      const ftl::lattice::Lattice lat = altun(r, f, id);
      ftl::bridge::VariabilityOptions o;
      o.trials = static_cast<int>(req.number_or("trials", 32));
      o.sigma_vth = 0.01;
      o.sigma_kp_rel = 0.05;
      o.seed = static_cast<std::uint64_t>(req.number_or("seed", 1.0));
      const Scope s(r.tracer, "bridge.monte_carlo_yield", id);
      ftl::bridge::monte_carlo_yield(lat, f.table, o);
      return;
    }
    case Op::kExplore: {
      const ftl::logic::ParsedFunction f = parse(r, req, id);
      ftl::designer::DesignOptions o;
      o.max_search_cells = static_cast<int>(req.number_or("max_cells", 12));
      o.search_seed = static_cast<std::uint64_t>(req.number_or("seed", 1.0));
      o.measure = measure_options(req);
      o.extra_candidates = [&r, names = f.var_names](const ftl::logic::TruthTable& t)
          -> std::vector<std::pair<std::string, ftl::lattice::Lattice>> {
        std::optional<ftl::lattice::Lattice> hit = ftl::library::lookup_only(r.lib, t, names);
        if (!hit) return {};
        return {{"library", std::move(*hit)}};
      };
      const Scope s(r.tracer, "designer.explore_designs", id);
      ftl::designer::explore_designs(f.table, f.var_names, o);
      return;
    }
    case Op::kPaths: {
      {
        const Scope s(r.tracer, "lattice.count_products", id);
        ftl::lattice::count_products(q.rows, q.cols);
      }
      if (q.paths_limit > 0) {
        const Scope s(r.tracer, "lattice.enumerate_products", id);
        ftl::lattice::enumerate_products(
            q.rows, q.cols, [](const std::vector<int>&) {},
            static_cast<std::uint64_t>(q.paths_limit));
      }
      return;
    }
  }
}

/// Replays one request through the public functions and returns the
/// duration of its root span. serve.json_dump times the canonical dump of
/// the parsed request, which the service computes for every cache key.
double replay(Replay& r, const Request& q, std::uint64_t id) {
  const std::size_t root = r.tracer.spans().size();
  {
    const Scope s(r.tracer, "serve.request", id);
    JsonValue req;
    {
      const Scope parse(r.tracer, "serve.json_parse", id);
      req = JsonValue::parse(q.line);
    }
    replay_op(r, q, req, id);
    const Scope dump(r.tracer, "serve.json_dump", id);
    req.dump();
  }
  const Tracer::Span& span = r.tracer.spans()[root];
  return us_between(span.start, span.end);
}

/// A reply must survive a parse and re-dump byte for byte: the protocol's
/// canonical rendering.
void check_round_trip(const std::string& reply, Outcome& out) {
  if (JsonValue::parse(reply).dump() != reply) {
    out.fail("a reply does not survive a JSON round trip: " + reply.substr(0, 160));
  }
}

/// Sample sizes: a workload's own inputs get the large sample, the others
/// a smaller one that still exercises every layer.
std::size_t sample(const Options& opts, const char* workload, std::size_t own,
                   std::size_t other) {
  const std::size_t n = opts.workload == workload ? own : other;
  return opts.smoke ? std::max<std::size_t>(n / 10, 60) : n;
}

struct ColdResult {
  std::vector<double> handle_us;  ///< handle_now per line
  std::map<Op, Counters> by_op;   ///< stats deltas per op kind
  Counters total;
};

/// Replays `requests` through a fresh Service (timed, counters per op)
/// and through the traced functions, request by request, alternating which
/// goes first so neither gains from the caches the other warmed. Every
/// reply goes through the oracles.
ColdResult replay_cold(const std::vector<Request>& requests, Replay& r,
                       std::uint64_t first_id, Outcome& out) {
  ColdResult res;
  std::vector<std::string> replies;
  ftl::serve::Service service;
  const Counters start = counters_of(service);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& q = requests[i];
    if (i % 2 == 1) r.root_us.push_back(replay(r, q, first_id + i));
    const Counters before = counters_of(service);
    const Clock::time_point t0 = Clock::now();
    replies.push_back(service.handle_now(q.line));
    res.handle_us.push_back(us_between(t0, Clock::now()));
    accumulate(res.by_op[q.op], before, counters_of(service));
    if (i % 2 == 0) r.root_us.push_back(replay(r, q, first_id + i));
  }
  accumulate(res.total, start, counters_of(service));
  out.attempted += 2 * requests.size();
  for (const auto& [i, why] : check_all(requests.size(), [&](std::size_t i) {
         return check_reply(requests[i], replies[i]);
       })) {
    out.fail(why);
  }
  for (const std::string& reply : replies) check_round_trip(reply, out);
  return res;
}

struct WarmResult {
  std::vector<Request> warm;       ///< the warm set
  std::vector<std::string> lines;  ///< the stream replayed against it
  std::vector<double> inproc_us;   ///< handle_now per stream line
  Counters delta;                  ///< stats deltas over the stream
  Counters contention;             ///< ... over the stream on 4 threads
};

/// serve_warm's stream against a warmed Service, then the warm set and
/// the stream's NPN twins through the traced functions.
WarmResult replay_warm(const Options& opts, Seen& seen, Replay& r,
                       std::uint64_t first_id, Outcome& out) {
  WarmResult res;
  Rng warm_rng(opts.seed, 31);
  Rng twin_rng(opts.seed, 32);
  res.warm = warm_set(warm_rng, seen);
  const std::size_t n = sample(opts, "serve_warm", 40000, 10000);
  const std::vector<Request> twins = npn_twins(twin_rng, res.warm, n / 20, seen);
  std::vector<WarmMix::Pick> picks;
  WarmMix mix(Rng(opts.seed, 33), res.warm, twins);
  WarmMix::Pick pick;
  std::string line;
  while (res.lines.size() < n && mix.next(pick, line)) {
    res.lines.push_back(std::move(line));
    picks.push_back(pick);
    line.clear();
  }

  ftl::serve::Service service;
  std::vector<std::string> warm_replies;
  for (const Request& q : res.warm) warm_replies.push_back(service.handle_now(q.line));
  std::vector<std::string> twin_replies(twins.size());
  const Counters before = counters_of(service);
  for (std::size_t i = 0; i < res.lines.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    std::string reply = service.handle_now(res.lines[i]);
    res.inproc_us.push_back(us_between(t0, Clock::now()));
    if (picks[i].kind == WarmMix::Kind::kTwin) twin_replies[picks[i].index] = std::move(reply);
  }
  const Counters after = counters_of(service);
  accumulate(res.delta, before, after);
  // The same lines from four threads at once: how often shard locks contend.
  {
    std::latch start(4);
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        start.arrive_and_wait();
        for (const std::string& l : res.lines) service.handle_now(l);
      });
    }
  }
  accumulate(res.contention, after, counters_of(service));
  out.attempted += res.warm.size() + 5 * res.lines.size();

  for (const auto& [i, why] : check_all(res.warm.size(), [&](std::size_t i) {
         return check_reply(res.warm[i], warm_replies[i]);
       })) {
    out.fail("warm set: " + why);
  }
  std::uint64_t id = first_id;
  for (std::size_t i = 0; i < res.warm.size(); ++i) {
    check_round_trip(warm_replies[i], out);
    replay(r, res.warm[i], id++);
  }
  for (std::size_t j = 0; j < twins.size(); ++j) {
    if (twin_replies[j].empty()) continue;
    const std::string why = check_reply(twins[j], twin_replies[j]);
    if (!why.empty()) out.fail(why);
    check_round_trip(twin_replies[j], out);
    replay(r, twins[j], id++);
  }
  return res;
}

/// Client-side latency of the stream's first lines over TCP, one request
/// at a time, on a server warmed with the same warm set.
std::vector<double> transport_probe(const WarmResult& warm, Outcome& out) {
  std::vector<double> client_us;
  Served served = start_served();
  {
    ftl::serve::Client client("127.0.0.1", served.port);
    for (const Request& q : warm.warm) client.call_line(q.line);
    const std::size_t n = std::min<std::size_t>(warm.lines.size(), 4000);
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point t0 = Clock::now();
      client.call_line(warm.lines[i]);
      client_us.push_back(us_between(t0, Clock::now()));
    }
  }
  const Child::Exit exit = stop_served(served);
  if (!exit.clean) out.fail("ftl_serve ended with " + exit.how);
  return client_us;
}

struct DagResult {
  std::map<std::string, double> job_ms;  ///< cold run, by job
  std::map<std::string, std::map<std::string, double>> job_counters;
  double run_ms = 0.0;        ///< the scheduler's wall time (run_finish)
  double critical_ms = 0.0;   ///< longest dependency chain of job times
  double warm_load_ms = 0.0;  ///< the warm rerun's cache_hit times, summed
  int bitexact = 0;
  std::size_t jobs = 0;       ///< golden jobs
};

/// The span layer of a figure-DAG job, by its name.
const char* job_layer(const std::string& job) {
  if (job.rfind("tcad_fit", 0) == 0) return "tcad.fit_sweep";
  if (job.rfind("tcad_", 0) == 0) return "tcad.sweep";
  if (job.rfind("fit_", 0) == 0) return "fit.levmar";
  if (job == "fig11_transient") return "spice.transient";
  if (job == "fig12b") return "spice.chain";
  if (job == "sweep_batch") return "batch.sweep";
  return "jobs.stage";
}

/// The figure DAG through ftl_run, cold then warm; its job events become
/// spans under one span for the cold run.
DagResult run_dag(const Options& opts, Replay& r, Outcome& out) {
  DagResult res;
  const bool quick = opts.workload != "figures" || opts.smoke;
  const std::map<std::string, std::string> golden = load_golden(quick);
  res.jobs = golden.size();
  const std::string dir = opts.work_dir + "/trace-dag";
  remove_tree(dir);
  make_dirs(dir);
  const Invocation cold = run_pipeline(quick, dir + "/cache", dir + "/events.fifo");
  res.bitexact = check_invocation(cold, true, dir + "/cache", golden, out);
  const Invocation warm = run_pipeline(quick, dir + "/cache", dir + "/events.fifo");
  check_invocation(warm, false, dir + "/cache", golden, out);
  remove_tree(dir);
  out.attempted += 2 * golden.size();

  const std::size_t root = r.tracer.spans().size();
  r.tracer.add("jobs.ftl_run", 0, Tracer::kNoParent, cold.spawned, cold.exit.at);
  // Event times count from the run's start, which the run_start event marks.
  const auto at = [&](double ms) {
    return cold.spawned + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(cold.setup_ms + ms));
  };
  for (const JsonValue& ev : cold.events) {
    const std::string type = ev.string_or("ev", "");
    if (type == "run_finish") res.run_ms = ev.number_or("wall_ms", 0.0);
    if (type != "job_finish") continue;
    const std::string job = ev.string_or("job", "");
    const double wall = ev.number_or("wall_ms", 0.0);
    const double end = ev.number_or("t_ms", 0.0);
    res.job_ms[job] = wall;
    if (const JsonValue* c = ev.find("counters")) {
      for (const auto& [k, v] : c->members()) res.job_counters[job][k] = v.as_number();
    }
    r.tracer.add(job_layer(job), 0, root, at(end - wall), at(end));
  }
  const ftl::jobs::PaperPipeline pipeline = ftl::jobs::build_paper_pipeline();
  std::vector<double> finish(pipeline.graph.size(), 0.0);
  for (std::size_t id = 0; id < pipeline.graph.size(); ++id) {
    const ftl::jobs::JobDesc& job = pipeline.graph.job(static_cast<ftl::jobs::JobId>(id));
    double ready = 0.0;
    for (const ftl::jobs::JobId dep : job.deps) {
      ready = std::max(ready, finish[static_cast<std::size_t>(dep)]);
    }
    const auto it = res.job_ms.find(job.name);
    finish[id] = ready + (it == res.job_ms.end() ? 0.0 : it->second);
    res.critical_ms = std::max(res.critical_ms, finish[id]);
  }
  for (const JsonValue& ev : warm.events) {
    if (ev.string_or("ev", "") == "cache_hit") res.warm_load_ms += ev.number_or("wall_ms", 0.0);
  }
  return res;
}

/// Self times of every span called `name`.
std::vector<double> self_of(const Tracer& t, const std::vector<double>& self,
                            const char* name) {
  std::vector<double> out;
  for (std::size_t i = 0; i < t.spans().size(); ++i) {
    if (std::string_view(t.spans()[i].name) == name) out.push_back(self[i]);
  }
  return out;
}

std::size_t count_op(const std::vector<Request>& requests, Op op) {
  std::size_t n = 0;
  for (const Request& q : requests) n += q.op == op ? 1 : 0;
  return n;
}

}  // namespace

Outcome run_trace(const Options& opts) {
  Outcome out;
  out.workload = opts.workload;
  Replay r;
  Seen seen;
  Rng synth_rng(opts.seed, 12);
  Rng sim_rng(opts.seed, 21);
  std::uint64_t sim_counter = 0;
  const std::vector<Request> synth =
      synth_mix(synth_rng, sample(opts, "serve_synth", 2000, 500), seen);
  const std::vector<Request> sim =
      sim_mix(sim_rng, sample(opts, "serve_sim", 200, 60), seen, sim_counter);
  const ColdResult synth_run = replay_cold(synth, r, 0, out);
  const ColdResult sim_run = replay_cold(sim, r, synth.size(), out);
  const WarmResult warm = replay_warm(opts, seen, r, synth.size() + sim.size(), out);
  const std::vector<double> client_us = transport_probe(warm, out);
  const DagResult dag = run_dag(opts, r, out);
  r.tracer.write(opts.spans_path);

  const std::vector<double> self = r.tracer.self_us();
  const auto add_span = [&](const char* metric, const char* span, double scale,
                            const char* unit) {
    const std::vector<double> v = self_of(r.tracer, self, span);
    out.add(metric, median(v) * scale, unit, v.size());
  };
  const auto by_op = [](const ColdResult& run, Op op) -> const Counters& {
    static const Counters kNone;
    const auto it = run.by_op.find(op);
    return it == run.by_op.end() ? kNone : it->second;
  };

  // serve
  const std::vector<double> inproc_head(
      warm.inproc_us.begin(),
      warm.inproc_us.begin() + static_cast<std::ptrdiff_t>(client_us.size()));
  out.add("serve.inproc_p50_us", median(warm.inproc_us), "us", warm.inproc_us.size());
  out.add("serve.transport_us", median(client_us) - median(inproc_head), "us",
          client_us.size());
  add_span("serve.json_parse_us", "serve.json_parse", 1.0, "us");
  add_span("serve.json_dump_us", "serve.json_dump", 1.0, "us");
  // cache and library on the warm stream
  const double lines = static_cast<double>(warm.lines.size());
  out.add("cache.line_hit_frac", ratio(get(warm.delta, "cache_core.line_hits"), lines),
          "ratio", warm.lines.size());
  out.add("cache.memory_hit_frac",
          ratio(get(warm.delta, "cache_core.memory_hits"),
                get(warm.delta, "cache_core.memory_hits") +
                    get(warm.delta, "cache_core.memory_misses")),
          "ratio", warm.lines.size());
  out.add("cache.shard_contention_per_mreq",
          ratio(get(warm.contention, "cache_core.shard_contention") * 1e6, 4 * lines),
          "count", 4 * warm.lines.size());
  out.add("cache.stores",
          get(synth_run.total, "cache_core.stores") + get(sim_run.total, "cache_core.stores"),
          "count", synth.size() + sim.size());
  out.add("library.class_hit_frac",
          ratio(get(warm.delta, "library_core.class_hits"),
                get(warm.delta, "library_core.lookups")),
          "ratio", static_cast<std::size_t>(get(warm.delta, "library_core.lookups")));
  {
    std::vector<double> hits;
    for (const std::size_t s : r.lookup_hits) hits.push_back(self[s]);
    out.add("library.hit_us", median(hits), "us", hits.size());
  }
  add_span("library.canonicalize_us", "library.canonicalize", 1.0, "us");
  out.add("library.populates", get(synth_run.total, "library_core.populates"), "count",
          synth.size());
  add_span("logic.parse_expr_us", "logic.parse_expression", 1.0, "us");
  // lattice: the serve_synth eval requests' assignments (handle_now half's
  // counters) per microsecond they spent in realized_truth_table (traced).
  add_span("lattice.eval_us", "lattice.realized_truth_table", 1.0, "us");
  {
    double eval_us = 0.0;
    std::size_t evals = 0;
    for (std::size_t i = 0; i < r.tracer.spans().size(); ++i) {
      const Tracer::Span& s = r.tracer.spans()[i];
      if (std::string_view(s.name) == "lattice.realized_truth_table" &&
          s.request < synth.size() && synth[s.request].op == Op::kEvalCells) {
        eval_us += self[i];
        ++evals;
      }
    }
    out.add("lattice.assignments_per_us",
            ratio(get(by_op(synth_run, Op::kEvalCells), "eval_core.assignments"), eval_us),
            "1/us", evals);
  }
  add_span("lattice.altun_us", "lattice.altun_riedel_synthesis", 1.0, "us");
  // sat
  {
    const std::vector<double> sat = self_of(r.tracer, self, "lattice.synth_sat");
    out.add("sat.synth_p50_ms", quantile(sat, 0.5) / 1000.0, "ms", sat.size());
    out.add("sat.synth_p99_ms", quantile(sat, 0.99) / 1000.0, "ms", sat.size());
    const Counters& c = by_op(synth_run, Op::kSynthSat);
    const std::size_t requests = count_op(synth, Op::kSynthSat);
    out.add("sat.conflicts_per_solve",
            ratio(get(c, "sat_core.conflicts"), get(c, "sat_core.solves")), "count",
            static_cast<std::size_t>(get(c, "sat_core.solves")));
    out.add("sat.cegar_rounds_per_req",
            ratio(get(c, "sat_core.cegar_rounds"), static_cast<double>(requests)), "count",
            requests);
    out.add("sat.useful_frac",
            ratio(static_cast<double>(r.sat_useful), static_cast<double>(r.sat_attempts)),
            "ratio", r.sat_attempts);
    const double checks = get(synth_run.total, "sat_core.proof_checks");
    out.add("sat.proof_check_ms",
            ratio(get(synth_run.total, "sat_core.proof_check_us"), checks) / 1000.0, "ms",
            static_cast<std::size_t>(checks));
  }
  // check
  add_span("check.audit_ms", "check.audit_lattice_sat", 1e-3, "ms");
  add_span("check.lint_us", "check.check_lattice", 1.0, "us");
  // bridge, spice, batch, designer
  {
    const Counters& m = by_op(sim_run, Op::kMetrics);
    const Counters& b = by_op(sim_run, Op::kSweep);
    const std::size_t metrics = count_op(sim, Op::kMetrics);
    add_span("bridge.measure_ms", "bridge.measure_resistor_gate", 1e-3, "ms");
    out.add("spice.newton_iters_per_req",
            ratio(get(m, "spice_core.newton_iterations"), static_cast<double>(metrics)),
            "count", metrics);
    out.add("spice.refactor_frac",
            ratio(get(m, "spice_core.refactors"),
                  get(m, "spice_core.refactors") + get(m, "spice_core.factors")),
            "ratio", metrics);
    out.add("spice.dense_fallbacks", get(m, "spice_core.dense_fallbacks"), "count", metrics);
    add_span("bridge.mc_ms", "bridge.monte_carlo_yield", 1e-3, "ms");
    out.add("batch.symbolic_reuse_frac",
            ratio(get(b, "batch_core.symbolic_reuses"),
                  get(b, "batch_core.symbolic_reuses") + get(b, "batch_core.symbolic_factors")),
            "ratio", static_cast<std::size_t>(get(b, "batch_core.batches")));
    out.add("batch.newton_iters_per_lane",
            ratio(get(b, "batch_core.newton_iterations"), get(b, "batch_core.lanes")), "count",
            static_cast<std::size_t>(get(b, "batch_core.lanes")));
    out.add("batch.lane_fallbacks", get(b, "batch_core.lane_fallbacks"), "count",
            static_cast<std::size_t>(get(b, "batch_core.lanes")));
    add_span("designer.explore_ms", "designer.explore_designs", 1e-3, "ms");
  }
  // jobs, tcad, fit and the SPICE stages of the figure DAG
  {
    double tcad = 0, fit_sweep = 0, passes = 0, levmar = 0;
    for (const auto& [job, ms] : dag.job_ms) {
      const std::string layer = job_layer(job);
      if (layer == "tcad.fit_sweep") fit_sweep += ms;
      if (layer == "tcad.sweep") tcad += ms;
      const auto c = dag.job_counters.find(job);
      if (c == dag.job_counters.end()) continue;
      const auto value = [&](const char* key) {
        const auto it = c->second.find(key);
        return it == c->second.end() ? 0.0 : it->second;
      };
      passes += value("solver_passes");
      levmar += value("levmar_iterations");
    }
    const auto job = [&](const char* name) {
      const auto it = dag.job_ms.find(name);
      return it == dag.job_ms.end() ? std::nan("") : it->second;
    };
    const std::size_t n = dag.job_ms.size();
    out.add("jobs.critical_path_ms", dag.critical_ms, "ms", n);
    out.add("jobs.sched_overhead_ms", dag.run_ms - dag.critical_ms, "ms", n);
    out.add("jobs.warm_load_ms", dag.warm_load_ms, "ms", dag.jobs);
    out.add("tcad.sweep_ms", tcad, "ms", n);
    out.add("tcad.fit_sweep_ms", fit_sweep, "ms", n);
    out.add("tcad.solver_passes", passes, "count", n);
    out.add("fit.levmar_iterations", levmar, "count", n);
    out.add("spice.transient_ms", job("fig11_transient"), "ms", 1);
    out.add("spice.chain_ms", job("fig12b"), "ms", 1);
    out.add("batch.sweep_job_ms", job("sweep_batch"), "ms", 1);
    out.add("figures.bitexact_jobs", dag.bitexact, "count", dag.jobs);
  }
  // Benchmark health: the traced replay against handle_now, request by
  // request, on the same cold lines (the median ratio, so a few heavy
  // requests caught by a slow host do not decide it).
  {
    std::vector<double> plain = synth_run.handle_us;
    plain.insert(plain.end(), sim_run.handle_us.begin(), sim_run.handle_us.end());
    std::vector<double> ratios;
    for (std::size_t i = 0; i < plain.size() && i < r.root_us.size(); ++i) {
      ratios.push_back(r.root_us[i] / plain[i]);
    }
    out.add("trace.overhead_frac", median(ratios) - 1.0, "ratio", ratios.size());
  }
  // Self time per layer (the module prefix of the span names).
  std::map<std::string, std::pair<double, std::size_t>> layers;
  for (std::size_t i = 0; i < r.tracer.spans().size(); ++i) {
    const std::string name = r.tracer.spans()[i].name;
    auto& [ms, spans] = layers[name.substr(0, name.find('.'))];
    ms += self[i] / 1000.0;
    ++spans;
  }
  for (const auto& [layer, total] : layers) {
    out.add("self." + layer + "_ms", total.first, "ms", total.second);
  }
  return out;
}

}  // namespace bench_e2e
