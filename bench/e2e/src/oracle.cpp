#include "oracle.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <thread>
#include <vector>

#include "ftl/lattice/lattice.hpp"
#include "ftl/lattice/paths.hpp"
#include "ftl/serve/json.hpp"

namespace bench_e2e {

namespace {

using ftl::serve::JsonValue;

/// A failed check, unwound to check_reply.
struct Bad {
  std::string why;
};

const JsonValue& field(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) throw Bad{std::string("missing '") + key + "'"};
  return *v;
}

double number(const JsonValue& obj, const char* key) {
  const JsonValue& v = field(obj, key);
  if (!v.is_number()) throw Bad{std::string("'") + key + "' is not a number"};
  return v.as_number();
}

bool flag(const JsonValue& obj, const char* key) {
  const JsonValue& v = field(obj, key);
  if (!v.is_bool()) throw Bad{std::string("'") + key + "' is not a boolean"};
  return v.as_bool();
}

void expect(bool ok, const std::string& why) {
  if (!ok) throw Bad{why};
}

ftl::lattice::CellValue cell_of(int code) {
  if (code == 0) return ftl::lattice::CellValue::zero();
  if (code == 1) return ftl::lattice::CellValue::one();
  return ftl::lattice::CellValue::of((code - 2) / 2, (code - 2) % 2 == 0);
}

ftl::lattice::Lattice lattice_of(const Request& r) {
  ftl::lattice::Lattice lat(r.rows, r.cols, r.num_vars);
  for (int i = 0; i < r.rows * r.cols; ++i) {
    lat.set(i / r.cols, i % r.cols, cell_of(r.cells[static_cast<std::size_t>(i)]));
  }
  return lat;
}

/// The lattice a reply returns, read with this file's own token grammar.
ftl::lattice::Lattice lattice_of(const JsonValue& obj) {
  const int rows = static_cast<int>(number(obj, "rows"));
  const int cols = static_cast<int>(number(obj, "cols"));
  const JsonValue& vars = field(obj, "vars");
  const JsonValue& cells = field(obj, "cells");
  expect(rows >= 1 && cols >= 1 && rows * cols <= 256, "bad lattice shape");
  expect(vars.is_array() && vars.items().size() <= 8, "bad lattice vars");
  expect(cells.is_array() &&
             cells.items().size() == static_cast<std::size_t>(rows * cols),
         "lattice cells do not match its shape");
  ftl::lattice::Lattice lat(rows, cols, static_cast<int>(vars.items().size()));
  for (int i = 0; i < rows * cols; ++i) {
    const JsonValue& cell = cells.items()[static_cast<std::size_t>(i)];
    expect(cell.is_string(), "lattice cell is not a string");
    std::string token = cell.as_string();
    ftl::lattice::CellValue value = ftl::lattice::CellValue::zero();
    if (token == "1") {
      value = ftl::lattice::CellValue::one();
    } else if (token != "0") {
      const bool negated = !token.empty() && token.back() == '\'';
      if (negated) token.pop_back();
      int var = -1;
      for (std::size_t v = 0; v < vars.items().size(); ++v) {
        if (vars.items()[v].is_string() && vars.items()[v].as_string() == token) {
          var = static_cast<int>(v);
        }
      }
      expect(var >= 0, "lattice cell '" + cell.as_string() + "' names no variable");
      value = ftl::lattice::CellValue::of(var, !negated);
    }
    lat.set(i / cols, i % cols, value);
  }
  return lat;
}

/// The lattice's function by the scalar evaluation loop.
Truth scalar_truth(const ftl::lattice::Lattice& lat) {
  Truth t{};
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << lat.num_vars()); ++m) {
    if (lat.evaluate(m)) t[m / 64] |= std::uint64_t{1} << (m % 64);
  }
  return t;
}

void check_on_set(const JsonValue& reply, const Truth& truth, int num_vars) {
  const std::uint64_t minterms = std::uint64_t{1} << num_vars;
  expect(number(reply, "minterms") == static_cast<double>(minterms),
         "wrong minterm count");
  expect(number(reply, "ones") ==
             static_cast<double>(truth_ones(truth, num_vars)),
         "wrong ones count");
  const JsonValue& on_set = field(reply, "on_set");
  expect(on_set.is_array(), "'on_set' is not an array");
  std::size_t k = 0;
  for (std::uint64_t m = 0; m < minterms; ++m) {
    if (!truth_get(truth, m)) continue;
    expect(k < on_set.items().size() && on_set.items()[k].is_number() &&
               on_set.items()[k].as_number() == static_cast<double>(m),
           "on_set differs from the scalar evaluation at minterm " +
               std::to_string(m));
    ++k;
  }
  expect(k == on_set.items().size(), "on_set lists extra minterms");
}

void check_realizes(const JsonValue& reply, const Request& r) {
  const ftl::lattice::Lattice lat = lattice_of(field(reply, "lattice"));
  expect(lat.num_vars() == r.num_vars, "lattice has the wrong variables");
  expect(scalar_truth(lat) == r.truth,
         "returned lattice does not realize the requested function");
}

void check_finite(const JsonValue& obj) {
  for (const auto& [key, value] : obj.members()) {
    if (value.is_number()) expect(std::isfinite(value.as_number()), key + " is not finite");
  }
}

void check_body(const Request& r, const JsonValue& reply) {
  switch (r.op) {
    case Op::kEvalCells:
      check_on_set(reply, scalar_truth(lattice_of(r)), r.num_vars);
      return;
    case Op::kEvalExpr:
      check_on_set(reply, r.truth, r.num_vars);
      return;
    case Op::kSynth:
      expect(flag(reply, "found") && flag(reply, "realizes"),
             "synth found no realizing lattice");
      check_realizes(reply, r);
      return;
    case Op::kSynthSat: {
      const bool found = flag(reply, "found");
      const bool infeasible = flag(reply, "proven_infeasible");
      expect(!(found && infeasible), "synth_sat is both found and infeasible");
      if (found) {
        check_realizes(reply, r);
        const JsonValue& lat = field(reply, "lattice");
        expect(number(lat, "rows") == r.rows && number(lat, "cols") == r.cols,
               "synth_sat lattice has the wrong shape");
      } else if (infeasible) {
        if (r.certify) {
          const JsonValue* proof = reply.find("proof");
          expect(proof != nullptr && proof->is_string() &&
                     proof->as_string() == "checked",
                 "certified infeasibility without a checked proof");
        }
      } else {
        expect(flag(reply, "budget_exhausted"),
               "synth_sat gave neither a lattice nor a verdict");
      }
      return;
    }
    case Op::kLint: {
      expect(field(reply, "report").is_object(), "lint has no report");
      const JsonValue* proof = reply.find("proof");
      expect(proof != nullptr && proof->is_string() &&
                 proof->as_string() == "checked",
             "certified lint without a checked proof");
      return;
    }
    case Op::kMetrics: {
      const JsonValue& m = field(reply, "metrics");
      flag(m, "functional");
      check_finite(m);
      expect(number(m, "switch_count") ==
                 number(reply, "rows") * number(reply, "cols"),
             "switch_count is not rows*cols");
      return;
    }
    case Op::kSweep: {
      const double trials = number(reply, "trials");
      const double passing = number(reply, "passing");
      expect(trials == 16 && passing >= 0 && passing <= trials,
             "sweep_batch trial counts out of range");
      expect(number(reply, "yield") == passing / trials,
             "sweep_batch yield is not passing/trials");
      check_finite(reply);
      return;
    }
    case Op::kExplore: {
      const JsonValue& list = field(reply, "candidates");
      expect(list.is_array() && !list.items().empty(), "explore has no candidates");
      const double best = number(reply, "best");
      expect(best >= -1 && best < static_cast<double>(list.items().size()) &&
                 best == std::floor(best),
             "explore's best index is out of range");
      for (const JsonValue& c : list.items()) check_finite(field(c, "metrics"));
      return;
    }
    case Op::kPaths: {
      const double count = number(reply, "count");
      expect(count == static_cast<double>(
                          ftl::lattice::count_products(r.rows, r.cols)),
             "wrong path count");
      if (r.paths_limit > 0) {
        const JsonValue& paths = field(reply, "paths");
        expect(paths.is_array() &&
                   static_cast<double>(paths.items().size()) ==
                       std::min(count, static_cast<double>(r.paths_limit)),
               "wrong number of listed paths");
      }
      return;
    }
  }
}

}  // namespace

std::string check_reply(const Request& request, std::string_view reply) {
  try {
    const JsonValue v = JsonValue::parse(reply);
    expect(v.is_object(), "reply is not an object");
    const JsonValue* op = v.find("op");
    expect(op != nullptr && op->is_string() && op->as_string() == op_name(request.op),
           "reply names the wrong op");
    const JsonValue* ok = v.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      const JsonValue* error = v.find("error");
      throw Bad{"error reply: " +
                (error != nullptr && error->is_string() ? error->as_string()
                                                        : std::string("?"))};
    }
    check_body(request, v);
    return {};
  } catch (const Bad& bad) {
    return std::string(op_name(request.op)) + ": " + bad.why + " (request " +
           request.line.substr(0, 160) + ")";
  } catch (const std::exception& e) {
    return std::string(op_name(request.op)) + ": " + e.what();
  }
}

std::vector<std::pair<std::size_t, std::string>> check_all(
    std::size_t n, const std::function<std::string(std::size_t)>& check) {
  std::vector<std::string> results(n);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        results[i] = check(i);
      } catch (const std::exception& e) {
        results[i] = e.what();
      }
    }
  };
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(work);
    work();
  }
  std::vector<std::pair<std::size_t, std::string>> failures;
  for (std::size_t i = 0; i < n; ++i) {
    if (!results[i].empty()) failures.emplace_back(i, std::move(results[i]));
  }
  return failures;
}

}  // namespace bench_e2e
