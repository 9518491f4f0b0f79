#include "ftl/serve/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ftl/bridge/metrics.hpp"
#include "ftl/bridge/variability.hpp"
#include "ftl/check/equivalence.hpp"
#include "ftl/check/lattice.hpp"
#include "ftl/check/lattice_sat.hpp"
#include "ftl/check/netlist.hpp"
#include "ftl/designer/designer.hpp"
#include "ftl/jobs/artifact.hpp"
#include "ftl/jobs/cache.hpp"
#include "ftl/jobs/digest.hpp"
#include "ftl/lattice/connectivity.hpp"
#include "ftl/lattice/function.hpp"
#include "ftl/lattice/lattice.hpp"
#include "ftl/lattice/paths.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/library/store.hpp"
#include "ftl/library/synthesize.hpp"
#include "ftl/logic/expr_parser.hpp"
#include "ftl/sat/solver.hpp"
#include "ftl/serve/json.hpp"
#include "ftl/spice/dcop.hpp"
#include "ftl/spice/linear_solver.hpp"
#include "ftl/util/counters.hpp"
#include "ftl/util/thread_pool.hpp"

namespace ftl::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Wall-clock budget of one request, measured from its submission. check()
/// is called at dequeue and between pipeline stages (parse -> synthesize ->
/// simulate -> serialize), so an expired request stops at the next stage
/// boundary instead of holding a worker for its full cost.
class Deadline {
 public:
  Deadline() = default;
  Deadline(double budget_ms, Clock::time_point start) {
    if (budget_ms > 0.0) {
      limited_ = true;
      end_ = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(budget_ms));
    }
  }

  bool expired() const { return limited_ && Clock::now() >= end_; }

  void check(const char* stage) const {
    if (expired()) throw DeadlineExceeded(stage);
  }

 private:
  bool limited_ = false;
  Clock::time_point end_{};
};

// ---------------------------------------------------------------------------
// Request helpers

double require_number(const JsonValue& req, std::string_view key) {
  const JsonValue* v = req.find(key);
  if (v == nullptr || !v->is_number()) {
    throw Error("field '" + std::string(key) + "' (number) is required");
  }
  return v->as_number();
}

std::string require_string(const JsonValue& req, std::string_view key) {
  const JsonValue* v = req.find(key);
  if (v == nullptr || !v->is_string()) {
    throw Error("field '" + std::string(key) + "' (string) is required");
  }
  return v->as_string();
}

int require_int(const JsonValue& req, std::string_view key, int min_value,
                int max_value) {
  const double raw = require_number(req, key);
  if (raw != std::floor(raw) || raw < min_value || raw > max_value) {
    throw Error("field '" + std::string(key) + "' must be an integer in [" +
                std::to_string(min_value) + ", " + std::to_string(max_value) +
                "]");
  }
  return static_cast<int>(raw);
}

/// The optional "seed" field, default 1: an integer in [0, 2^53], the
/// range where a JSON number holds every integer exactly. Anything else
/// would be truncated, or overflow the cast to uint64_t.
std::uint64_t seed_from(const JsonValue& req) {
  const double raw = req.number_or("seed", 1.0);
  if (raw != std::floor(raw) || raw < 0.0 || raw > 9007199254740992.0) {
    throw Error("field 'seed' must be an integer in [0, 2^53]");
  }
  return static_cast<std::uint64_t>(raw);
}

std::vector<std::string> string_array_or(const JsonValue& req,
                                         std::string_view key) {
  const JsonValue* v = req.find(key);
  if (v == nullptr || v->is_null()) return {};
  if (!v->is_array()) {
    throw Error("field '" + std::string(key) + "' must be an array of strings");
  }
  std::vector<std::string> out;
  for (const JsonValue& item : v->items()) {
    if (!item.is_string()) {
      throw Error("field '" + std::string(key) + "' must contain only strings");
    }
    out.push_back(item.as_string());
  }
  return out;
}

lattice::CellValue parse_cell(const std::string& token,
                              const std::vector<std::string>& vars) {
  if (token == "0") return lattice::CellValue::zero();
  if (token == "1") return lattice::CellValue::one();
  std::string name = token;
  bool positive = true;
  if (!name.empty() && name.front() == '!') {
    positive = false;
    name.erase(name.begin());
  }
  if (!name.empty() && name.back() == '\'') {
    positive = !positive;
    name.pop_back();
  }
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (vars[i] == name) {
      return lattice::CellValue::of(static_cast<int>(i), positive);
    }
  }
  throw Error("cell '" + token + "' names a variable not in 'vars'");
}

JsonValue lattice_json(const lattice::Lattice& lat) {
  JsonValue out = JsonValue::object();
  out.set("rows", JsonValue::number(lat.rows()));
  out.set("cols", JsonValue::number(lat.cols()));
  out.set("num_vars", JsonValue::number(lat.num_vars()));
  JsonValue vars = JsonValue::array();
  for (const std::string& name : lat.var_names()) vars.push(JsonValue::str(name));
  out.set("vars", std::move(vars));
  JsonValue cells = JsonValue::array();
  for (int r = 0; r < lat.rows(); ++r) {
    for (int c = 0; c < lat.cols(); ++c) {
      cells.push(JsonValue::str(lat.at(r, c).to_string(lat.var_names())));
    }
  }
  out.set("cells", std::move(cells));
  return out;
}

}  // namespace

// Public so ftl_lint --lattice parses mapping files with the exact grammar
// of the lattice-taking ops (declared in service.hpp).
LatticeSpec lattice_spec_from(const JsonValue& req) {
  if (req.find("cells") != nullptr) {
    const int rows = require_int(req, "rows", 1, 16);
    const int cols = require_int(req, "cols", 1, 16);
    std::vector<std::string> vars = string_array_or(req, "vars");
    if (vars.empty() && req.find("vars") != nullptr) {
      throw Error("'vars' must be a non-empty array when 'cells' is given");
    }
    const JsonValue& cells = *req.find("cells");
    if (!cells.is_array() ||
        cells.items().size() != static_cast<std::size_t>(rows * cols)) {
      throw Error("'cells' must be a row-major array of rows*cols strings");
    }
    lattice::Lattice lat(rows, cols, static_cast<int>(vars.size()), vars);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        const JsonValue& cell = cells.items()[static_cast<std::size_t>(r * cols + c)];
        if (!cell.is_string()) throw Error("'cells' entries must be strings");
        lat.set(r, c, parse_cell(cell.as_string(), vars));
      }
    }
    return {std::move(lat), std::nullopt};
  }
  if (req.find("expr") != nullptr) {
    const logic::ParsedFunction parsed = logic::parse_expression(
        require_string(req, "expr"), string_array_or(req, "vars"));
    lattice::Lattice lat =
        lattice::altun_riedel_synthesis(parsed.table, parsed.var_names);
    return {std::move(lat), parsed.table};
  }
  throw Error("request needs either 'expr' or 'rows'/'cols'/'vars'/'cells'");
}

namespace {

/// Most transient steps per input code one measurement may take: 50x the
/// default 200 (40 ns at 0.2 ns), which still admits a 0.005 ns reference
/// step at the default phase. Every step is recorded and the deadline is
/// checked only between stages, so this is what bounds one request's work.
constexpr double kMaxStepsPerPhase = 10000.0;

bridge::MeasureOptions measure_options_from(const JsonValue& req) {
  bridge::MeasureOptions opts;
  const double phase_ns = req.number_or("phase_ns", 40.0);
  const double dt_ns = req.number_or("dt_ns", 0.2);
  if (!(dt_ns > 0.0) || !(phase_ns >= 4.0 * dt_ns) || phase_ns > 1e6 ||
      phase_ns / dt_ns > kMaxStepsPerPhase) {
    throw Error(
        "'phase_ns'/'dt_ns' must satisfy 0 < dt_ns <= phase_ns/4 <= 250000 "
        "and phase_ns/dt_ns <= 10000");
  }
  opts.phase_time = phase_ns * 1e-9;
  opts.dt = dt_ns * 1e-9;
  return opts;
}

JsonValue metrics_json(const bridge::GateMetrics& m) {
  JsonValue out = JsonValue::object();
  out.set("functional", JsonValue::boolean(m.functional));
  out.set("switch_count", JsonValue::number(m.switch_count));
  out.set("output_low_max_v", JsonValue::number(m.output_low_max));
  out.set("output_high_min_v", JsonValue::number(m.output_high_min));
  out.set("static_power_worst_w", JsonValue::number(m.static_power_worst));
  out.set("static_power_mean_w", JsonValue::number(m.static_power_mean));
  out.set("rise_time_s", JsonValue::number(m.rise_time));
  out.set("fall_time_s", JsonValue::number(m.fall_time));
  out.set("propagation_delay_s", JsonValue::number(m.propagation_delay));
  out.set("max_frequency_hz", JsonValue::number(m.max_frequency));
  out.set("energy_per_transition_j", JsonValue::number(m.energy_per_transition));
  return out;
}

// ---------------------------------------------------------------------------
// Handlers. Each returns the response body *without* the echoed id, with
// "op" and "ok" first, so pure-op bodies are cacheable verbatim.

JsonValue body_for(const std::string& op, bool ok = true) {
  JsonValue body = JsonValue::object();
  body.set("op", JsonValue::str(op));
  body.set("ok", JsonValue::boolean(ok));
  return body;
}

JsonValue handle_ping(const JsonValue&, const Deadline&) {
  JsonValue body = body_for("ping");
  body.set("pong", JsonValue::boolean(true));
  return body;
}

/// Shared response annotations for the library-routed synth ops: where the
/// lattice came from ("library" = relabeled from the class store with zero
/// engine work, "engine" = a search ran) and — whenever the target was
/// canonicalized — the NPN class key, so clients can correlate requests
/// that are the same function up to permutation/negation.
void set_library_fields(JsonValue& body, const library::SynthesisResult& r) {
  body.set("source", JsonValue::str(r.from_library ? "library" : "engine"));
  if (r.npn_key != 0) {
    body.set("npn_class", JsonValue::str(jobs::digest_hex(r.npn_key)));
  }
}

JsonValue handle_synth(const JsonValue& req, const Deadline& deadline,
                       library::LatticeLibrary* lib) {
  const logic::ParsedFunction parsed = logic::parse_expression(
      require_string(req, "expr"), string_array_or(req, "vars"));
  const std::string method = req.string_or("method", "auto");
  if (method != "auto" && method != "altun") {
    throw Error("unknown method '" + method +
                "' (expected auto or altun; the synth_sat op searches a "
                "fixed rows x cols shape)");
  }
  deadline.check("synthesis");

  library::SynthesisRequest synth_req;
  synth_req.var_names = parsed.var_names;
  const library::SynthesisResult result =
      library::synthesize(parsed.table, synth_req, lib);
  deadline.check("serialization");

  JsonValue body = body_for("synth");
  body.set("method", JsonValue::str(method));
  body.set("found", JsonValue::boolean(result.found));
  set_library_fields(body, result);
  if (result.found) {
    const lattice::Lattice& lat = result.lattice;
    body.set("lattice", lattice_json(lat));
    body.set("switch_count", JsonValue::number(lat.rows() * lat.cols()));
    body.set("paths", JsonValue::number(static_cast<double>(
                          lattice::count_products(lat.rows(), lat.cols()))));
    body.set("realizes", JsonValue::boolean(lattice::realizes(lat, parsed.table)));
  }
  return body;
}

/// CEGAR SAT synthesis as a service op, routed library-first: a class hit
/// answers with a relabeled stored lattice and an all-zero solver report
/// (no CDCL ran), a miss runs synth_sat and offers the result back to the
/// library. Outcomes other than "found" are structured results, not errors
/// — infeasibility is a proof, budget exhaustion an explicit refusal.
JsonValue handle_synth_sat(const JsonValue& req, const Deadline& deadline,
                           library::LatticeLibrary* lib) {
  const logic::ParsedFunction parsed = logic::parse_expression(
      require_string(req, "expr"), string_array_or(req, "vars"));
  library::SynthesisRequest synth_req;
  synth_req.engine = library::SynthesisRequest::Engine::kSat;
  synth_req.rows = require_int(req, "rows", 1, 8);
  synth_req.cols = require_int(req, "cols", 1, 8);
  synth_req.var_names = parsed.var_names;
  synth_req.sat.seed = seed_from(req);
  synth_req.sat.allow_constants = req.bool_or("constants", true);
  const double budget = req.number_or("max_conflicts", 2e6);
  if (!(budget >= 0.0) || budget > 9e18) {
    throw Error("'max_conflicts' must be a number in [0, 9e18]");
  }
  synth_req.sat.max_conflicts = static_cast<std::int64_t>(budget);
  synth_req.sat.certify = req.bool_or("certify", false);
  deadline.check("synthesis");

  const library::SynthesisResult result =
      library::synthesize(parsed.table, synth_req, lib);
  deadline.check("serialization");

  JsonValue body = body_for("synth_sat");
  body.set("found", JsonValue::boolean(result.found));
  set_library_fields(body, result);
  body.set("proven_infeasible", JsonValue::boolean(result.proven_infeasible));
  body.set("budget_exhausted", JsonValue::boolean(result.budget_exhausted));
  // Under "certify", an infeasibility verdict carries its proof status:
  // "checked" when the final UNSAT's LRAT derivation passed the embedded
  // checker, "failed" when it was rejected (treat the verdict as unproven).
  if (synth_req.sat.certify && result.proven_infeasible) {
    const bool valid = result.sat && result.sat->proof_valid;
    body.set("proof", JsonValue::str(valid ? "checked" : "failed"));
  }
  if (result.found) {
    body.set("lattice", lattice_json(result.lattice));
    body.set("switch_count", JsonValue::number(result.lattice.rows() *
                                               result.lattice.cols()));
  }
  // Library hits never touched the solver, so the work report is zeros
  // (clients can read sat-core effort straight off any response).
  const lattice::SatSynthesisResult* ran =
      result.sat ? &*result.sat : nullptr;
  const auto num = [](std::uint64_t v) {
    return JsonValue::number(static_cast<double>(v));
  };
  body.set("cegar_rounds", JsonValue::number(ran ? ran->cegar_rounds : 0));
  body.set("care_minterms", JsonValue::number(ran ? ran->care_minterms : 0));
  body.set("seed", num(ran ? ran->seed : synth_req.sat.seed));
  JsonValue solver = JsonValue::object();
  const sat::SolveStats work = ran ? ran->solver : sat::SolveStats{};
  solver.set("solves", num(work.solves));
  solver.set("conflicts", num(work.conflicts));
  solver.set("decisions", num(work.decisions));
  solver.set("propagations", num(work.propagations));
  solver.set("restarts", num(work.restarts));
  solver.set("learned_clauses", num(work.learned_clauses));
  body.set("solver", std::move(solver));
  return body;
}

JsonValue handle_eval(const JsonValue& req, const Deadline& deadline) {
  LatticeSpec spec = lattice_spec_from(req);
  const lattice::Lattice& lat = spec.lat;
  deadline.check("evaluation");

  JsonValue body = body_for("eval");
  body.set("rows", JsonValue::number(lat.rows()));
  body.set("cols", JsonValue::number(lat.cols()));
  body.set("num_vars", JsonValue::number(lat.num_vars()));

  const JsonValue* assignments = req.find("assignments");
  if (assignments != nullptr) {
    if (!assignments->is_array()) {
      throw Error("'assignments' must be an array of minterm indices");
    }
    const double limit =
        lat.num_vars() >= 63 ? 9e18 : std::ldexp(1.0, lat.num_vars());
    JsonValue outputs = JsonValue::array();
    for (const JsonValue& a : assignments->items()) {
      if (!a.is_number() || a.as_number() != std::floor(a.as_number()) ||
          a.as_number() < 0.0 || a.as_number() >= limit) {
        throw Error("'assignments' entries must be integers in [0, 2^num_vars)");
      }
      outputs.push(JsonValue::number(
          lat.evaluate(static_cast<std::uint64_t>(a.as_number())) ? 1 : 0));
    }
    body.set("outputs", std::move(outputs));
  } else {
    if (lat.num_vars() > 16) {
      throw Error("full truth-table eval needs num_vars <= 16; pass 'assignments'");
    }
    const logic::TruthTable table = lattice::realized_truth_table(lat);
    deadline.check("serialization");
    body.set("minterms", JsonValue::number(static_cast<double>(table.num_minterms())));
    body.set("ones", JsonValue::number(static_cast<double>(table.count_ones())));
    if (lat.num_vars() <= 12) {
      JsonValue on_set = JsonValue::array();
      for (std::uint64_t m = 0; m < table.num_minterms(); ++m) {
        if (table.get(m)) on_set.push(JsonValue::number(static_cast<double>(m)));
      }
      body.set("on_set", std::move(on_set));
    }
  }
  if (req.bool_or("sop", false)) {
    if (lat.cell_count() > 12) {
      throw Error("'sop' rendering is limited to lattices of <= 12 cells");
    }
    deadline.check("sop");
    body.set("sop", JsonValue::str(
                        lattice::realized_sop(lat).to_string(lat.var_names())));
  }
  return body;
}

JsonValue handle_paths(const JsonValue& req, const Deadline& deadline) {
  const int rows = require_int(req, "rows", 1, 12);
  const int cols = require_int(req, "cols", 1, 12);
  const int list_limit = req.find("list_limit") != nullptr
                             ? require_int(req, "list_limit", 0, 10000)
                             : 0;
  deadline.check("enumeration");

  JsonValue body = body_for("paths");
  body.set("rows", JsonValue::number(rows));
  body.set("cols", JsonValue::number(cols));
  body.set("count", JsonValue::number(
                        static_cast<double>(lattice::count_products(rows, cols))));
  if (list_limit > 0) {
    JsonValue paths = JsonValue::array();
    lattice::enumerate_products(
        rows, cols,
        [&](const std::vector<int>& cells) {
          JsonValue path = JsonValue::array();
          for (const int cell : cells) path.push(JsonValue::number(cell));
          paths.push(std::move(path));
        },
        static_cast<std::uint64_t>(list_limit));
    body.set("paths", std::move(paths));
  }
  return body;
}

JsonValue handle_metrics(const JsonValue& req, const Deadline& deadline) {
  LatticeSpec spec = lattice_spec_from(req);
  if (spec.lat.num_vars() > 6) {
    throw Error("metrics characterization needs num_vars <= 6");
  }
  const bridge::MeasureOptions opts = measure_options_from(req);
  deadline.check("target function");
  const logic::TruthTable target =
      spec.target ? *spec.target : lattice::realized_truth_table(spec.lat);
  deadline.check("simulation");
  const bridge::GateMetrics metrics =
      bridge::measure_resistor_gate(spec.lat, target, opts);
  deadline.check("serialization");

  JsonValue body = body_for("metrics");
  body.set("rows", JsonValue::number(spec.lat.rows()));
  body.set("cols", JsonValue::number(spec.lat.cols()));
  body.set("metrics", metrics_json(metrics));
  return body;
}

// sweep_batch: a Monte-Carlo yield sweep of the requested lattice through
// bridge::monte_carlo_yield, whose trials solve as corners of one
// spice::dcop_batch per input code. Deterministic for fixed parameters at
// ANY worker count (lanes reduce in trial order; threads split the batch,
// never a trial), so it is a pure, cacheable op; the batches' counters
// surface in `stats` as batch_core.
JsonValue handle_sweep_batch(const JsonValue& req, const Deadline& deadline) {
  LatticeSpec spec = lattice_spec_from(req);
  if (spec.lat.num_vars() > 6) {
    throw Error("sweep_batch characterization needs num_vars <= 6");
  }
  bridge::VariabilityOptions options;
  options.trials = req.find("trials") != nullptr
                       ? require_int(req, "trials", 1, 4096)
                       : 32;
  options.sigma_vth = req.number_or("sigma_vth", 0.01);
  options.sigma_kp_rel = req.number_or("sigma_kp_rel", 0.05);
  if (options.sigma_vth < 0.0 || options.sigma_kp_rel < 0.0 ||
      options.sigma_vth > 10.0 || options.sigma_kp_rel > 10.0) {
    throw Error("'sigma_vth'/'sigma_kp_rel' must be in [0, 10]");
  }
  options.seed = seed_from(req);
  options.max_threads = req.find("workers") != nullptr
                            ? require_int(req, "workers", 0, 4096)
                            : 0;
  deadline.check("target function");
  const logic::TruthTable target =
      spec.target ? *spec.target : lattice::realized_truth_table(spec.lat);
  deadline.check("simulation");
  const bridge::VariabilityResult result =
      bridge::monte_carlo_yield(spec.lat, target, options);
  deadline.check("serialization");

  JsonValue body = body_for("sweep_batch");
  body.set("rows", JsonValue::number(spec.lat.rows()));
  body.set("cols", JsonValue::number(spec.lat.cols()));
  body.set("trials", JsonValue::number(result.trials));
  body.set("passing", JsonValue::number(result.passing));
  body.set("yield", JsonValue::number(result.yield()));
  body.set("worst_low", JsonValue::number(result.worst_low));
  body.set("worst_high", JsonValue::number(result.worst_high));
  return body;
}

JsonValue handle_explore(const JsonValue& req, const Deadline& deadline,
                         library::LatticeLibrary* lib) {
  const logic::ParsedFunction parsed = logic::parse_expression(
      require_string(req, "expr"), string_array_or(req, "vars"));

  designer::DesignOptions options;
  options.try_smaller_lattices = req.bool_or("try_smaller", true);
  options.include_complementary = req.bool_or("complementary", true);
  options.max_search_cells = req.find("max_cells") != nullptr
                                 ? require_int(req, "max_cells", 1, 16)
                                 : options.max_search_cells;
  options.search_seed = seed_from(req);
  options.measure = measure_options_from(req);
  if (lib != nullptr) {
    // Feed the best-known class lattice (relabeled and verified by
    // lookup_only) into the candidate set; the designer re-verifies and
    // measures it like any other single-lattice design.
    const std::vector<std::string> names = parsed.var_names;
    options.extra_candidates =
        [lib, names](const logic::TruthTable& target)
        -> std::vector<std::pair<std::string, lattice::Lattice>> {
      std::optional<lattice::Lattice> hit =
          library::lookup_only(*lib, target, names);
      if (!hit) return {};
      return {{"library", std::move(*hit)}};
    };
  }

  designer::DesignWeights weights;
  if (const JsonValue* w = req.find("weights")) {
    weights.area = w->number_or("area", weights.area);
    weights.delay = w->number_or("delay", weights.delay);
    weights.static_power = w->number_or("power", weights.static_power);
    weights.energy = w->number_or("energy", weights.energy);
  }
  deadline.check("exploration");

  const std::vector<designer::CandidateDesign> candidates =
      designer::explore_designs(parsed.table, parsed.var_names, options);
  deadline.check("serialization");

  JsonValue body = body_for("explore");
  JsonValue list = JsonValue::array();
  for (const designer::CandidateDesign& c : candidates) {
    JsonValue entry = JsonValue::object();
    entry.set("method", JsonValue::str(c.method));
    entry.set("rows", JsonValue::number(c.pulldown.rows()));
    entry.set("cols", JsonValue::number(c.pulldown.cols()));
    entry.set("complementary", JsonValue::boolean(c.is_complementary()));
    entry.set("metrics", metrics_json(c.metrics));
    list.push(std::move(entry));
  }
  body.set("candidates", std::move(list));
  long best = -1;
  try {
    best = static_cast<long>(designer::pick_best(candidates, weights));
  } catch (const Error&) {
    // No functional candidate; best stays -1.
  }
  body.set("best", JsonValue::number(static_cast<double>(best)));
  return body;
}

JsonValue report_json(const check::Report& report) {
  JsonValue out = JsonValue::object();
  out.set("clean", JsonValue::boolean(report.clean()));
  out.set("errors", JsonValue::number(report.errors()));
  out.set("warnings", JsonValue::number(report.warnings()));
  out.set("notes", JsonValue::number(report.notes()));
  JsonValue list = JsonValue::array();
  for (const check::Diagnostic& d : report.diagnostics()) {
    JsonValue entry = JsonValue::object();
    entry.set("rule", JsonValue::str(d.rule));
    entry.set("severity", JsonValue::str(check::severity_name(d.severity)));
    entry.set("object", JsonValue::str(d.object));
    entry.set("message", JsonValue::str(d.message));
    if (d.loc.valid()) {
      entry.set("line", JsonValue::number(d.loc.line));
      entry.set("column", JsonValue::number(d.loc.column));
    }
    list.push(std::move(entry));
  }
  out.set("diagnostics", std::move(list));
  return out;
}

/// Static diagnostics as a service op: a "netlist" string runs the netlist
/// passes; a lattice spec ("cells" or "expr") runs the lattice passes plus
/// — when a target function is known — BDD equivalence. Pure and cacheable
/// like the other deterministic ops.
JsonValue handle_lint(const JsonValue& req, const Deadline& deadline) {
  check::Report report;
  const bool certify = req.bool_or("certify", false);
  bool certified_lint = false;
  if (const JsonValue* deck = req.find("netlist")) {
    if (!deck->is_string()) throw Error("'netlist' must be a string");
    deadline.check("lint");
    report = check::lint_netlist(deck->as_string()).report;
  } else {
    LatticeSpec spec = lattice_spec_from(req);
    deadline.check("lint");
    report = check::check_lattice(spec.lat);
    if (certify) {
      certified_lint = true;
      check::LatticeSatAuditOptions audit;
      audit.certify = true;
      report.merge(check::audit_lattice_sat(spec.lat, audit).report);
    }
    std::optional<logic::TruthTable> target = spec.target;
    if (const JsonValue* t = req.find("target")) {
      if (!t->is_string()) {
        throw Error("'target' must be an expression string");
      }
      target =
          logic::parse_expression(t->as_string(), spec.lat.var_names()).table;
    }
    if (target) {
      deadline.check("equivalence");
      check::EquivalenceOptions equiv;
      const std::string backend = req.string_or("equiv", "auto");
      if (backend == "bdd") {
        equiv.backend = check::EquivalenceOptions::Backend::kBdd;
      } else if (backend == "sat") {
        equiv.backend = check::EquivalenceOptions::Backend::kSat;
      } else if (backend != "auto") {
        throw Error("unknown equiv backend '" + backend +
                    "' (expected auto, bdd, or sat)");
      }
      equiv.certify = certify;
      report.merge(check::check_equivalence(spec.lat, *target, equiv));
    }
  }
  deadline.check("serialization");
  // "ok" means the lint ran, not that the subject is clean — findings live
  // in report.clean/errors/warnings.
  JsonValue body = body_for("lint");
  body.set("report", report_json(report));
  // Certified lattice lints state the proof status: every UNSAT verdict
  // passed the embedded LRAT checker ("checked") or at least one was
  // rejected ("failed" — the report then carries FTL-E003).
  if (certified_lint) {
    bool failed = false;
    for (const check::Diagnostic& d : report.diagnostics()) {
      if (d.rule == "FTL-E003") failed = true;
    }
    body.set("proof", JsonValue::str(failed ? "failed" : "checked"));
  }
  return body;
}

JsonValue handle_sleep(const JsonValue& req, const Deadline& deadline) {
  const double ms = std::clamp(req.number_or("ms", 0.0), 0.0, 10000.0);
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(ms));
  // Sleep in slices so a mid-request deadline fires promptly.
  while (Clock::now() < end) {
    deadline.check("sleep");
    const auto remaining = end - Clock::now();
    std::this_thread::sleep_for(
        std::min<Clock::duration>(remaining, std::chrono::milliseconds(5)));
  }
  deadline.check("sleep");
  JsonValue body = body_for("sleep");
  body.set("slept_ms", JsonValue::number(ms));
  return body;
}

/// Canonical parameter rendering for the cache key: the request object with
/// the volatile fields (id, deadline_ms) stripped, dumped in member order.
std::string canonical_params(const JsonValue& req) {
  JsonValue canon = JsonValue::object();
  for (const auto& [key, value] : req.members()) {
    if (key == "id" || key == "deadline_ms") continue;
    canon.set(key, value);
  }
  return canon.dump();
}

std::string make_error_body(const std::string& op, const std::string& code,
                            const std::string& message) {
  JsonValue body = body_for(op.empty() ? "?" : op, false);
  body.set("error", JsonValue::str(code));
  body.set("message", JsonValue::str(message));
  return body.dump();
}

/// Prefixes the echoed id onto a cached/computed body ("{...}" ->
/// "{"id":...,...}") without reparsing it.
std::string splice_id(const JsonValue* id, const std::string& body) {
  if (id == nullptr) return body;
  std::string out = "{\"id\":" + id->dump() + ",";
  out += std::string_view(body).substr(1);
  return out;
}

std::uint64_t thread_hash() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

}  // namespace

// ---------------------------------------------------------------------------

struct Service::Impl {
  explicit Impl(ServiceOptions opts_in)
      : opts(std::move(opts_in)),
        // ThreadPool counts the caller as a worker; +1 yields `workers`
        // dedicated background threads for submitted requests.
        pool(std::max<std::size_t>(opts.workers, 1) + 1),
        t0(Clock::now()) {
    if (!opts.cache_dir.empty()) {
      disk = std::make_unique<jobs::ResultCache>(opts.cache_dir);
    }
    if (opts.library) {
      lib = opts.library_dir.empty()
                ? std::make_unique<library::LatticeLibrary>()
                : std::make_unique<library::LatticeLibrary>(opts.library_dir);
    }
  }

  struct Executed {
    std::string response;   ///< full response line (id spliced in)
    std::string op = "?";   ///< "?" when the request never named one
    std::string status;    ///< protocol outcome string
    bool cache_hit = false;
    std::uint64_t key = 0;  ///< cache key; 0 for impure ops
    /// True when the raw request line may enter the verbatim-line cache: a
    /// pure op that succeeded and carried neither "id" nor "deadline_ms"
    /// (so the full response equals the cacheable body byte for byte).
    bool line_cacheable = false;
  };

  /// Response-cache counters of this service, reported in `stats` as
  /// `cache_core`. `memory_misses` counts sharded in-memory lookups that
  /// missed (a computed request probes twice: once on the submit fast path,
  /// once at execute); `shard_contention` counts shard-lock acquisitions
  /// that had to wait.
  struct CacheCounters {
    util::CounterSet set{"cache_core"};
    util::Counter& memory_hits = set.declare("memory_hits");
    util::Counter& memory_misses = set.declare("memory_misses");
    util::Counter& line_hits = set.declare("line_hits");
    util::Counter& disk_hits = set.declare("disk_hits");
    util::Counter& stores = set.declare("stores");
    util::Counter& shard_contention = set.declare("shard_contention");
  };

  /// Runs one parsed request. Never throws.
  Executed execute(const JsonValue& req, const Deadline& deadline) {
    Executed out;
    const JsonValue* id = req.find("id");
    const bool plain =
        id == nullptr && req.find("deadline_ms") == nullptr;
    try {
      out.op = require_string(req, "op");
      std::uint64_t key = 0;
      if (opts.cache && is_pure_op(out.op)) {
        key = jobs::cache_key(out.op, jobs::fnv1a64(canonical_params(req)), {});
        out.key = key;
        if (std::optional<std::string> body = cache_load(out.op, key)) {
          out.cache_hit = true;
          out.status = "ok";
          out.line_cacheable = plain;
          out.response = splice_id(id, *body);
          return out;
        }
      }
      const std::string body = dispatch(out.op, req, deadline).dump();
      if (key != 0) cache_store(out.op, key, body);
      out.status = "ok";
      out.line_cacheable = key != 0 && plain;
      out.response = splice_id(id, body);
    } catch (const DeadlineExceeded& e) {
      out.status = "deadline_exceeded";
      out.response = splice_id(id, make_error_body(out.op, out.status, e.what()));
    } catch (const Error& e) {
      out.status = "bad_request";
      out.response = splice_id(id, make_error_body(out.op, out.status, e.what()));
    } catch (const std::exception& e) {
      out.status = "internal";
      out.response = splice_id(id, make_error_body(out.op, out.status, e.what()));
    }
    return out;
  }

  /// One row per protocol op: its handler, and whether the op is a pure
  /// function of its parameters (and so cacheable). The "unknown op"
  /// message lists the rows in table order.
  struct Op {
    std::string_view name;
    JsonValue (*handle)(Impl&, const JsonValue&, const Deadline&);
    bool pure;
  };
  static const std::vector<Op>& ops();

  static const Op* find_op(std::string_view name) {
    for (const Op& op : ops()) {
      if (op.name == name) return &op;
    }
    return nullptr;
  }

  static bool is_pure_op(std::string_view name) {
    const Op* op = find_op(name);
    return op != nullptr && op->pure;
  }

  JsonValue dispatch(const std::string& op, const JsonValue& req,
                     const Deadline& deadline) {
    if (const Op* entry = find_op(op)) return entry->handle(*this, req, deadline);
    std::string expected;
    for (const Op& entry : ops()) {
      if (!expected.empty()) expected += ", ";
      if (&entry == &ops().back()) expected += "or ";
      expected += entry.name;
    }
    throw Error("unknown op '" + op + "' (expected " + expected + ")");
  }

  JsonValue handle_stats() {
    JsonValue body = body_for("stats");
    body.set("stats", stats.snapshot());
    JsonValue svc = JsonValue::object();
    svc.set("workers", JsonValue::number(static_cast<double>(opts.workers)));
    svc.set("queue_depth_limit",
            JsonValue::number(static_cast<double>(opts.queue_depth)));
    svc.set("in_flight", JsonValue::number(static_cast<double>(inflight.load())));
    svc.set("pending", JsonValue::number(static_cast<double>(pending.load())));
    svc.set("pool_queue",
            JsonValue::number(static_cast<double>(pool.queue_depth())));
    svc.set("pool_active",
            JsonValue::number(static_cast<double>(pool.active_tasks())));
    svc.set("draining", JsonValue::boolean(draining.load()));
    body.set("service", std::move(svc));
    // Counter sections, in the reply's fixed order. They live in the
    // uncached `stats` op on purpose: the `metrics` op is cached with a
    // cached==computed byte-equality guarantee that volatile counters would
    // break. The list is explicit rather than self-registered, because a
    // static library drops the object files nothing references, and with
    // them any section they would register.
    const auto add_counters = [](JsonValue& out, const util::CounterSet& set) {
      for (const util::CounterValue& c : set.snapshot()) {
        out.set(c.key, JsonValue::number(static_cast<double>(c.value)));
      }
    };
    for (const util::CounterSet* set :
         {&lattice::eval_core().set, &cache_counters.set, &sat::sat_core().set,
          &spice::spice_core().set, &spice::batch_core().set}) {
      JsonValue section = JsonValue::object();
      add_counters(section, *set);
      if (set == &cache_counters.set) {
        section.set("shards",
                    JsonValue::number(static_cast<double>(kCacheShards)));
      }
      body.set(set->name(), std::move(section));
    }
    // The library's index gauges lead its counters; a disabled library
    // reports only `enabled`.
    JsonValue library_core = JsonValue::object();
    library_core.set("enabled", JsonValue::boolean(lib != nullptr));
    if (lib) {
      const double classes = static_cast<double>(lib->num_classes());
      const double entries = static_cast<double>(lib->num_entries());
      library_core.set("classes", JsonValue::number(classes));
      library_core.set("entries", JsonValue::number(entries));
      add_counters(library_core, lib->counters().set);
    }
    body.set("library_core", std::move(library_core));
    return body;
  }

  // Artifact notes must stay comma/newline-free (their serialization is
  // CSV), so response bodies are percent-encoded on the way to disk.
  static std::string encode_note(const std::string& body) {
    std::string out;
    out.reserve(body.size());
    for (const char c : body) {
      switch (c) {
        case '%': out += "%25"; break;
        case ',': out += "%2C"; break;
        case '\n': out += "%0A"; break;
        case '\r': out += "%0D"; break;
        default: out += c;
      }
    }
    return out;
  }

  static std::string decode_note(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '%' && i + 2 < text.size()) {
        const std::string hex = text.substr(i + 1, 2);
        if (hex == "25") { out += '%'; i += 2; continue; }
        if (hex == "2C") { out += ','; i += 2; continue; }
        if (hex == "0A") { out += '\n'; i += 2; continue; }
        if (hex == "0D") { out += '\r'; i += 2; continue; }
      }
      out += text[i];
    }
    return out;
  }

  /// Shard selection: the top bits of the mixed jobs::cache_key (or line
  /// hash) prefix pick one of kCacheShards per-shard locks, so concurrent
  /// hot lookups distribute instead of serializing on one mutex. The mix64
  /// matters: raw FNV-1a keys keep their entropy in the low bits, and the
  /// unmixed prefix would fold most keys into one or two shards.
  static std::size_t shard_of(std::uint64_t key) {
    return static_cast<std::size_t>(jobs::mix64(key) >> 60) &
           (kCacheShards - 1);
  }

  /// Locks a shard, counting the acquisitions that actually contended.
  std::unique_lock<std::mutex> shard_lock(std::mutex& m) {
    std::unique_lock<std::mutex> lock(m, std::try_to_lock);
    if (!lock.owns_lock()) {
      cache_counters.shard_contention.add();
      lock.lock();
    }
    return lock;
  }

  std::optional<std::string> cache_load(const std::string& op,
                                        std::uint64_t key) {
    MemoShard& shard = memo_shards[shard_of(key)];
    {
      auto lock = shard_lock(shard.m);
      const auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        cache_counters.memory_hits.add();
        return it->second;
      }
    }
    cache_counters.memory_misses.add();
    if (disk) {
      if (std::optional<jobs::Artifact> art = disk->load(op, key)) {
        const auto it = art->notes.find("response");
        if (it != art->notes.end()) {
          std::string body = decode_note(it->second);
          cache_counters.disk_hits.add();
          auto lock = shard_lock(shard.m);
          shard.map.emplace(key, body);
          return body;
        }
      }
    }
    return std::nullopt;
  }

  void cache_store(const std::string& op, std::uint64_t key,
                   const std::string& body) {
    MemoShard& shard = memo_shards[shard_of(key)];
    {
      auto lock = shard_lock(shard.m);
      shard.map.emplace(key, body);
    }
    cache_counters.stores.add();
    if (disk) {
      try {
        jobs::Artifact art;
        art.notes["response"] = encode_note(body);
        disk->store(op, key, art);
      } catch (const std::exception&) {
        // A full or read-only disk must not fail the request; the response
        // simply is not warm across restarts.
      }
    }
  }

  /// Verbatim-line fast path: repeated identical pure-op lines (no "id",
  /// no "deadline_ms") answer without parsing JSON or hashing canonical
  /// parameters. Entries store the full line for an exact compare, so hash
  /// collisions and near-miss lines fall through to the canonical path.
  struct LineHit {
    std::string op;
    std::string response;
    std::uint64_t key;
  };

  std::optional<LineHit> line_load(const std::string& line) {
    const std::uint64_t h = jobs::fnv1a64(line);
    LineShard& shard = line_shards[shard_of(h)];
    auto lock = shard_lock(shard.m);
    const auto it = shard.map.find(h);
    if (it == shard.map.end() || it->second.line != line) return std::nullopt;
    cache_counters.line_hits.add();
    return LineHit{it->second.op, it->second.response, it->second.key};
  }

  void line_store(const std::string& line, const Executed& done) {
    const std::uint64_t h = jobs::fnv1a64(line);
    LineShard& shard = line_shards[shard_of(h)];
    auto lock = shard_lock(shard.m);
    shard.map.emplace(
        h, LineEntry{line, done.op, done.response, done.key});
  }

  void finish(const Executed& done, Clock::time_point t_start) {
    const double wall_ms = ms_between(t_start, Clock::now());
    stats.record(done.op, done.status, wall_ms * 1000.0, done.cache_hit,
                 done.key != 0 && !done.cache_hit);
    if (opts.access_log != nullptr) {
      jobs::Event ev;
      ev.type = "request";
      ev.job = done.op;
      ev.detail = done.status;
      ev.t_ms = ms_between(t0, t_start);
      ev.wall_ms = wall_ms;
      ev.thread = thread_hash();
      if (done.key != 0) ev.cache_key = jobs::digest_hex(done.key);
      if (done.cache_hit) ev.counters["cache_hit"] = 1.0;
      opts.access_log->emit(ev);
    }
  }

  ServiceOptions opts;
  util::ThreadPool pool;
  std::unique_ptr<jobs::ResultCache> disk;
  std::unique_ptr<library::LatticeLibrary> lib;  ///< null when disabled

  static constexpr std::size_t kCacheShards = 16;  // power of two
  struct MemoShard {
    std::mutex m;
    std::unordered_map<std::uint64_t, std::string> map;
  };
  struct LineEntry {
    std::string line;
    std::string op;
    std::string response;
    std::uint64_t key;
  };
  struct LineShard {
    std::mutex m;
    std::unordered_map<std::uint64_t, LineEntry> map;
  };
  MemoShard memo_shards[kCacheShards];
  LineShard line_shards[kCacheShards];
  CacheCounters cache_counters;

  StatsRegistry stats;
  std::atomic<bool> draining{false};
  std::atomic<bool> shutdown{false};
  std::atomic<std::size_t> pending{0};   // admitted, not yet started
  std::atomic<std::size_t> inflight{0};  // admitted, not yet completed
  std::mutex drain_m;
  std::condition_variable drain_cv;
  Clock::time_point t0;
};

const std::vector<Service::Impl::Op>& Service::Impl::ops() {
  using D = const Deadline&;
  using R = const JsonValue&;
  static const std::vector<Op> table = {
      {"ping", [](Impl&, R req, D d) { return handle_ping(req, d); }, false},
      {"synth",
       [](Impl& s, R req, D d) { return handle_synth(req, d, s.lib.get()); },
       true},
      {"synth_sat",
       [](Impl& s, R req, D d) {
         return handle_synth_sat(req, d, s.lib.get());
       },
       true},
      {"eval", [](Impl&, R req, D d) { return handle_eval(req, d); }, true},
      {"paths", [](Impl&, R req, D d) { return handle_paths(req, d); }, true},
      {"metrics", [](Impl&, R req, D d) { return handle_metrics(req, d); },
       true},
      {"sweep_batch",
       [](Impl&, R req, D d) { return handle_sweep_batch(req, d); }, true},
      {"explore",
       [](Impl& s, R req, D d) { return handle_explore(req, d, s.lib.get()); },
       true},
      {"lint", [](Impl&, R req, D d) { return handle_lint(req, d); }, true},
      {"stats", [](Impl& s, R, D) { return s.handle_stats(); }, false},
      {"sleep", [](Impl&, R req, D d) { return handle_sleep(req, d); }, false},
      {"shutdown",
       [](Impl& s, R, D) {
         s.shutdown.store(true);
         JsonValue body = body_for("shutdown");
         body.set("draining", JsonValue::boolean(true));
         return body;
       },
       false},
  };
  return table;
}

Service::Service(ServiceOptions options) : impl_(new Impl(std::move(options))) {}

Service::~Service() { drain(); }

std::string Service::handle_now(const std::string& line) {
  const Clock::time_point t_start = Clock::now();
  // Verbatim-line fast path: an identical pure-op line answers with the
  // exact previously computed bytes, skipping the JSON parse entirely.
  if (impl_->opts.cache) {
    if (std::optional<Impl::LineHit> hit = impl_->line_load(line)) {
      Impl::Executed done;
      done.response = std::move(hit->response);
      done.op = std::move(hit->op);
      done.status = "ok";
      done.cache_hit = true;
      done.key = hit->key;
      impl_->finish(done, t_start);
      return done.response;
    }
  }
  JsonValue req;
  try {
    req = JsonValue::parse(line);
    if (!req.is_object()) throw Error("request must be a JSON object");
  } catch (const std::exception& e) {
    Impl::Executed done;
    done.response = make_error_body("?", "bad_request", e.what());
    done.status = "bad_request";
    impl_->finish(done, t_start);
    return done.response;
  }
  Deadline deadline;
  Impl::Executed done;
  try {
    deadline = Deadline(req.number_or("deadline_ms", 0.0), t_start);
  } catch (const Error& e) {
    done.response = splice_id(
        req.find("id"),
        make_error_body(req.string_or("op", "?"), "bad_request", e.what()));
    done.status = "bad_request";
    impl_->finish(done, t_start);
    return done.response;
  }
  done = impl_->execute(req, deadline);
  if (impl_->opts.cache && done.line_cacheable) impl_->line_store(line, done);
  impl_->finish(done, t_start);
  return done.response;
}

std::future<std::string> Service::submit(std::string line) {
  // submit() is a thin future adapter over submit_async: rejections and
  // cache hits complete the promise before this returns, so the future is
  // already satisfied in exactly the cases it used to be.
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();
  submit_async(std::move(line), [promise](std::string&& response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void Service::submit_async(std::string line,
                           std::function<void(std::string&&)> done) {
  Impl& impl = *impl_;
  const Clock::time_point t_submit = Clock::now();

  // Verbatim-line fast path (skipped while draining so the shutting_down
  // contract holds): no parse, no admission, no pool hop.
  if (impl.opts.cache && !impl.draining.load(std::memory_order_relaxed)) {
    if (std::optional<Impl::LineHit> hit = impl.line_load(line)) {
      Impl::Executed hot;
      hot.response = std::move(hit->response);
      hot.op = std::move(hit->op);
      hot.status = "ok";
      hot.cache_hit = true;
      hot.key = hit->key;
      impl.finish(hot, t_submit);
      done(std::move(hot.response));
      return;
    }
  }

  // Parse on the caller so malformed input and rejections answer instantly
  // and the deadline can be anchored at submission.
  std::shared_ptr<JsonValue> req;
  std::string op = "?";
  const JsonValue* id = nullptr;
  Deadline deadline;
  try {
    req = std::make_shared<JsonValue>(JsonValue::parse(line));
    if (!req->is_object()) throw Error("request must be a JSON object");
    op = req->string_or("op", "?");
    id = req->find("id");
    deadline = Deadline(req->number_or("deadline_ms", 0.0), t_submit);
  } catch (const std::exception& e) {
    Impl::Executed bad;
    bad.response = splice_id(id, make_error_body(op, "bad_request", e.what()));
    bad.op = op;
    bad.status = "bad_request";
    impl.finish(bad, t_submit);
    done(std::move(bad.response));
    return;
  }

  // Canonically cached pure ops also answer synchronously: the hot path
  // costs one sharded lookup and never contends for a worker. The deadline
  // still gets its "at dequeue" check (dequeue is immediate here).
  if (impl.opts.cache && !impl.draining.load(std::memory_order_relaxed) &&
      Impl::is_pure_op(op)) {
    const std::uint64_t key =
        jobs::cache_key(op, jobs::fnv1a64(canonical_params(*req)), {});
    if (std::optional<std::string> body = impl.cache_load(op, key)) {
      Impl::Executed hot;
      hot.op = op;
      hot.key = key;
      if (deadline.expired()) {
        hot.status = "deadline_exceeded";
        hot.response = splice_id(
            id, make_error_body(op, hot.status, "deadline expired while queued"));
      } else {
        hot.status = "ok";
        hot.cache_hit = true;
        hot.line_cacheable =
            id == nullptr && req->find("deadline_ms") == nullptr;
        hot.response = splice_id(id, *body);
        if (hot.line_cacheable) impl.line_store(line, hot);
      }
      impl.finish(hot, t_submit);
      done(std::move(hot.response));
      return;
    }
  }

  // Admission: count ourselves in-flight first so a drain that observes the
  // flag after our check also observes the increment and waits for us.
  impl.inflight.fetch_add(1);
  const std::size_t queued = impl.pending.fetch_add(1);
  const auto reject = [&](const char* code, const char* message) {
    impl.pending.fetch_sub(1);
    {
      // Notify under the lock, same as the worker path: the condvar must
      // not be signalled after drain() has been allowed to return.
      std::lock_guard<std::mutex> lock(impl.drain_m);
      impl.inflight.fetch_sub(1);
      impl.drain_cv.notify_all();
    }
    Impl::Executed out;
    out.response = splice_id(id, make_error_body(op, code, message));
    out.op = op;
    out.status = code;
    impl.finish(out, t_submit);
    done(std::move(out.response));
  };
  if (impl.draining.load()) {
    reject("shutting_down", "service is draining; request not admitted");
    return;
  }
  if (queued >= impl.opts.queue_depth) {
    reject("overloaded", "admission queue is full; retry later");
    return;
  }

  impl.pool.submit([this, req = std::move(req), line = std::move(line),
                    done = std::move(done), t_submit, deadline]() mutable {
    Impl& im = *impl_;
    im.pending.fetch_sub(1);
    Impl::Executed out;
    // Deadline check at dequeue: a request that waited out its budget in
    // the queue is answered without occupying the worker.
    if (deadline.expired()) {
      out.response = splice_id(req->find("id"),
                               make_error_body(req->string_or("op", "?"),
                                               "deadline_exceeded",
                                               "deadline expired while queued"));
      out.op = req->string_or("op", "?");
      out.status = "deadline_exceeded";
    } else {
      out = im.execute(*req, deadline);
      if (im.opts.cache && out.line_cacheable) im.line_store(line, out);
    }
    im.finish(out, t_submit);
    // The callback runs before the in-flight count drops so drain() cannot
    // return while a completion is still being delivered.
    done(std::move(out.response));
    {
      // Notify while holding the lock: drain()'s waiter cannot re-acquire
      // drain_m (and so cannot return and let ~Impl destroy the condvar)
      // until this thread is fully done signalling.
      std::lock_guard<std::mutex> lock(im.drain_m);
      im.inflight.fetch_sub(1);
      im.drain_cv.notify_all();
    }
  });
}

void Service::drain() {
  Impl& impl = *impl_;
  impl.draining.store(true);
  std::unique_lock<std::mutex> lock(impl.drain_m);
  impl.drain_cv.wait(lock, [&] { return impl.inflight.load() == 0; });
}

bool Service::draining() const { return impl_->draining.load(); }

bool Service::shutdown_requested() const { return impl_->shutdown.load(); }

std::size_t Service::in_flight() const { return impl_->inflight.load(); }

StatsRegistry& Service::stats() { return impl_->stats; }

const ServiceOptions& Service::options() const { return impl_->opts; }

}  // namespace ftl::serve
