#include "gen.hpp"

#include <algorithm>
#include <cstdio>

#include "ftl/util/error.hpp"

namespace bench_e2e {

namespace {

constexpr const char* kNames[8] = {"a", "b", "c", "d", "e", "f", "g", "h"};

/// Draws until `make` yields a line not seen before in this run.
template <typename Make>
Request unique(Seen& seen, Make make) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    Request r = make();
    if (seen.insert(fnv1a(r.line)).second) return r;
  }
  throw ftl::Error("request generator exhausted its unique lines");
}

std::string vars_json(int num_vars) {
  std::string out = "[";
  for (int v = 0; v < num_vars; ++v) {
    if (v > 0) out += ',';
    out += '"';
    out += kNames[v];
    out += '"';
  }
  return out + "]";
}

std::string cell_text(int code) {
  if (code == 0) return "0";
  if (code == 1) return "1";
  std::string s = kNames[(code - 2) / 2];
  if ((code - 2) % 2 == 1) s += '\'';
  return s;
}

std::vector<std::int8_t> random_cells(Rng& rng, int cells, int num_vars) {
  std::vector<std::int8_t> out(static_cast<std::size_t>(cells));
  for (std::int8_t& c : out) {
    if (rng.chance(0.1)) {
      c = static_cast<std::int8_t>(rng.below(2));
    } else {
      c = static_cast<std::int8_t>(
          cell_code(static_cast<int>(rng.below(static_cast<std::uint64_t>(num_vars))),
                    rng.chance(0.5)));
    }
  }
  return out;
}

/// "rows":R,"cols":C,"vars":[...],"cells":[...] of an explicit lattice.
std::string lattice_fields(const Request& r) {
  std::string out = "\"rows\":" + std::to_string(r.rows) +
                    ",\"cols\":" + std::to_string(r.cols) +
                    ",\"vars\":" + vars_json(r.num_vars) + ",\"cells\":[";
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + cell_text(r.cells[i]) + '"';
  }
  return out + "]";
}

Request random_lattice(Rng& rng, Op op, int min_dim, int max_dim,
                       int num_vars) {
  Request r;
  r.op = op;
  r.rows = static_cast<std::int8_t>(rng.range(min_dim, max_dim));
  r.cols = static_cast<std::int8_t>(rng.range(min_dim, max_dim));
  r.num_vars = static_cast<std::int8_t>(num_vars);
  r.cells = random_cells(rng, r.rows * r.cols, num_vars);
  return r;
}

Truth truth_of(const std::vector<Cube>& cubes, int num_vars) {
  Truth t{};
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << num_vars); ++m) {
    for (const Cube& c : cubes) {
      if ((m & c.pos) == c.pos && (m & c.neg) == 0) {
        t[m / 64] |= std::uint64_t{1} << (m % 64);
        break;
      }
    }
  }
  return t;
}

/// SOP text of `cubes`; with `shuffle`, literal order within each product
/// is randomized (the parser does not care, the line bytes do).
std::string sop_text(const std::vector<Cube>& cubes, int num_vars,
                     Rng* shuffle = nullptr) {
  std::string out;
  for (const Cube& c : cubes) {
    std::vector<std::string> lits;
    for (int v = 0; v < num_vars; ++v) {
      if (c.pos & (1u << v)) lits.emplace_back(kNames[v]);
      if (c.neg & (1u << v)) lits.push_back(std::string(kNames[v]) + "'");
    }
    if (shuffle != nullptr) {
      for (std::size_t i = lits.size(); i > 1; --i) {
        std::swap(lits[i - 1], lits[shuffle->below(i)]);
      }
    }
    if (!out.empty()) out += " + ";
    for (std::size_t i = 0; i < lits.size(); ++i) {
      if (i > 0) out += ' ';
      out += lits[i];
    }
  }
  return out;
}

/// Three products of 2..3 literals over `num_vars` variables. With at most
/// 3 * 2^(n-2) of 2^n minterms covered the function is never constant 1.
std::vector<Cube> random_sop(Rng& rng, int num_vars) {
  std::vector<Cube> cubes(3);
  for (Cube& c : cubes) {
    const int lits = rng.range(2, 3);
    std::uint8_t used = 0;
    for (int k = 0; k < lits; ++k) {
      int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(num_vars)));
      while (used & (1u << v)) v = (v + 1) % num_vars;
      used = static_cast<std::uint8_t>(used | (1u << v));
      if (rng.chance(0.5)) {
        c.neg = static_cast<std::uint8_t>(c.neg | (1u << v));
      } else {
        c.pos = static_cast<std::uint8_t>(c.pos | (1u << v));
      }
    }
  }
  return cubes;
}

/// The minterm cubes of the function whose truth table is `bits`.
std::vector<Cube> minterm_cubes(std::uint64_t bits, int num_vars) {
  const std::uint64_t minterms = std::uint64_t{1} << num_vars;
  std::vector<Cube> cubes;
  for (std::uint64_t m = 0; m < minterms; ++m) {
    if (((bits >> m) & 1) == 0) continue;
    Cube c;
    c.pos = static_cast<std::uint8_t>(m);
    c.neg = static_cast<std::uint8_t>(~m & (minterms - 1));
    cubes.push_back(c);
  }
  return cubes;
}

/// A random non-constant function of `num_vars` (<= 5) variables.
std::vector<Cube> random_function(Rng& rng, int num_vars) {
  const std::uint64_t mask = (std::uint64_t{1} << (std::uint64_t{1} << num_vars)) - 1;
  std::uint64_t bits = 0;
  while (bits == 0 || bits == mask) bits = rng.next() & mask;
  return minterm_cubes(bits, num_vars);
}

/// Deals the 254 non-constant 3-variable functions in shuffled rounds, each
/// once per round: a few hundred requests then cover the function space
/// evenly whatever the seed, and their mean cost does not hinge on which
/// expensive functions a seed happens to draw.
class FunctionDeck {
 public:
  std::vector<Cube> deal(Rng& rng) {
    if (next_ == deck_.size()) {
      deck_.clear();
      for (std::uint64_t bits = 1; bits < 255; ++bits) deck_.push_back(bits);
      for (std::size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng.below(i)]);
      }
      next_ = 0;
    }
    return minterm_cubes(deck_[next_++], 3);
  }

 private:
  std::vector<std::uint64_t> deck_;
  std::size_t next_ = 0;
};

Request function_request(Op op, std::vector<Cube> cubes, int num_vars,
                         Rng* shuffle = nullptr) {
  Request r;
  r.op = op;
  r.num_vars = static_cast<std::int8_t>(num_vars);
  r.truth = truth_of(cubes, num_vars);
  r.line = "\"expr\":\"" + sop_text(cubes, num_vars, shuffle) +
           "\",\"vars\":" + vars_json(num_vars);
  r.cubes = std::move(cubes);
  return r;
}

std::string wrap(const char* op, const std::string& fields) {
  return std::string("{\"op\":\"") + op + "\"," + fields + "}";
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kEvalCells:
    case Op::kEvalExpr: return "eval";
    case Op::kSynth: return "synth";
    case Op::kSynthSat: return "synth_sat";
    case Op::kLint: return "lint";
    case Op::kMetrics: return "metrics";
    case Op::kSweep: return "sweep_batch";
    case Op::kExplore: return "explore";
    case Op::kPaths: return "paths";
  }
  return "?";
}

bool truth_get(const Truth& t, std::uint64_t m) {
  return ((t[m / 64] >> (m % 64)) & 1) != 0;
}

std::uint64_t truth_ones(const Truth& t, int num_vars) {
  std::uint64_t ones = 0;
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << num_vars); ++m) {
    ones += truth_get(t, m) ? 1 : 0;
  }
  return ones;
}

std::vector<Request> synth_mix(Rng& rng, std::size_t count, Seen& seen) {
  std::vector<Request> out;
  out.reserve(count);
  while (out.size() < count) {
    const std::uint64_t pick = rng.below(100);
    out.push_back(unique(seen, [&] {
      if (pick < 45) {
        Request r = random_lattice(rng, Op::kEvalCells, 4, 8, 8);
        r.line = wrap("eval", lattice_fields(r));
        return r;
      }
      if (pick < 67) {
        Request r = function_request(Op::kSynth, random_sop(rng, 5), 5);
        r.line = wrap("synth", r.line);
        return r;
      }
      if (pick < 89) {
        const bool four = rng.chance(0.5);
        Request r = four ? function_request(Op::kSynthSat,
                                            random_function(rng, 4), 4)
                         : function_request(Op::kSynthSat, random_sop(rng, 5), 5);
        r.rows = r.cols = static_cast<std::int8_t>(four ? 4 : 3);
        r.certify = rng.chance(0.5);
        r.line = wrap("synth_sat", r.line + ",\"rows\":" + std::to_string(r.rows) +
                                       ",\"cols\":" + std::to_string(r.cols) +
                                       ",\"max_conflicts\":20000" +
                                       (r.certify ? ",\"certify\":true" : ""));
        return r;
      }
      Request r = random_lattice(rng, Op::kLint, 3, 3, 3);
      r.certify = true;
      r.line = wrap("lint", lattice_fields(r) + ",\"certify\":true");
      return r;
    }));
  }
  return out;
}

std::vector<Request> sim_mix(Rng& rng, std::size_t count, Seen& seen,
                             std::uint64_t& counter) {
  std::vector<Request> out;
  out.reserve(count);
  FunctionDeck metrics, sweep, explore;
  while (out.size() < count) {
    const std::uint64_t pick = rng.below(100);
    out.push_back(unique(seen, [&] {
      const std::uint64_t k = ++counter;
      if (pick < 50) {
        Request r = function_request(Op::kMetrics, metrics.deal(rng), 3);
        char phase[32];
        std::snprintf(phase, sizeof phase, "%.3f",
                      40.0 + 0.001 * static_cast<double>(k));
        r.line = wrap("metrics", r.line + ",\"phase_ns\":" + phase);
        return r;
      }
      if (pick < 85) {
        Request r = function_request(Op::kSweep, sweep.deal(rng), 3);
        r.line = wrap("sweep_batch", r.line + ",\"trials\":16,\"seed\":" +
                                         std::to_string(k));
        return r;
      }
      Request r = function_request(Op::kExplore, explore.deal(rng), 3);
      r.line = wrap("explore",
                    r.line + ",\"max_cells\":6,\"seed\":" + std::to_string(k));
      return r;
    }));
  }
  return out;
}

std::vector<Request> warm_set(Rng& rng, Seen& seen) {
  std::vector<Request> out;
  for (int i = 0; i < 64; ++i) {
    out.push_back(unique(seen, [&] {
      Request r = function_request(Op::kEvalExpr, random_sop(rng, 5), 5);
      r.line = wrap("eval", r.line);
      return r;
    }));
  }
  for (int i = 0; i < 64; ++i) {
    out.push_back(unique(seen, [&] {
      Request r = function_request(Op::kSynth, random_sop(rng, 5), 5);
      while (truth_ones(r.truth, 5) == 16) {
        r = function_request(Op::kSynth, random_sop(rng, 5), 5);
      }
      r.line = wrap("synth", r.line);
      return r;
    }));
  }
  for (int i = 0; i < 64; ++i) {
    out.push_back(unique(seen, [&] {
      Request r;
      r.op = Op::kPaths;
      r.rows = static_cast<std::int8_t>(rng.range(2, 7));
      r.cols = static_cast<std::int8_t>(rng.range(2, 7));
      r.paths_limit = static_cast<std::int16_t>(rng.chance(0.5) ? 4 : 0);
      r.line = wrap("paths", "\"rows\":" + std::to_string(r.rows) +
                                 ",\"cols\":" + std::to_string(r.cols) +
                                 (r.paths_limit > 0 ? ",\"list_limit\":4" : ""));
      return r;
    }));
  }
  for (int i = 0; i < 64; ++i) {
    out.push_back(unique(seen, [&] {
      Request r = random_lattice(rng, Op::kEvalCells, 4, 6, 6);
      r.line = wrap("eval", lattice_fields(r));
      return r;
    }));
  }
  return out;
}

std::vector<Request> npn_twins(Rng& rng, const std::vector<Request>& warm,
                               std::size_t count, Seen& seen) {
  std::vector<const Request*> classes;
  for (const Request& r : warm) {
    if (r.op == Op::kSynth) classes.push_back(&r);
  }
  FTL_EXPECTS(!classes.empty());
  std::vector<Request> out;
  out.reserve(count);
  while (out.size() < count) {
    out.push_back(unique(seen, [&] {
      const Request& base = *classes[rng.below(classes.size())];
      int perm[5] = {0, 1, 2, 3, 4};
      for (int i = 4; i > 0; --i) {
        std::swap(perm[i], perm[rng.below(static_cast<std::uint64_t>(i) + 1)]);
      }
      const std::uint64_t flip = rng.below(32);
      std::vector<Cube> cubes;
      for (const Cube& c : base.cubes) {
        Cube t;
        for (int v = 0; v < 5; ++v) {
          const bool in_pos = (c.pos & (1u << v)) != 0;
          const bool in_neg = (c.neg & (1u << v)) != 0;
          if (!in_pos && !in_neg) continue;
          const bool negated = in_neg != (((flip >> v) & 1) != 0);
          std::uint8_t& mask = negated ? t.neg : t.pos;
          mask = static_cast<std::uint8_t>(mask | (1u << perm[v]));
        }
        cubes.push_back(t);
      }
      for (std::size_t i = cubes.size(); i > 1; --i) {
        std::swap(cubes[i - 1], cubes[rng.below(i)]);
      }
      Request r = function_request(Op::kSynth, std::move(cubes), 5, &rng);
      r.line = wrap("synth", r.line);
      return r;
    }));
  }
  return out;
}

WarmMix::WarmMix(Rng rng, const std::vector<Request>& warm,
                 const std::vector<Request>& twins)
    : rng_(rng), warm_(warm), twins_(twins) {}

bool WarmMix::next(Pick& pick, std::string& out) {
  const std::uint64_t draw = rng_.below(100);
  if (draw >= 98) {
    if (next_twin_ == twins_.size()) return false;
    pick = Pick{Kind::kTwin, next_twin_++, 0};
    out += twins_[pick.index].line;
    return true;
  }
  pick.index = rng_.below(warm_.size());
  if (draw < 60) {
    pick.kind = Kind::kRepeat;
    out += warm_[pick.index].line;
  } else {
    pick.kind = Kind::kWithId;
    pick.id = ++last_id_;
    out += "{\"id\":";
    out += std::to_string(pick.id);
    out += ',';
    out.append(warm_[pick.index].line, 1);
  }
  return true;
}

}  // namespace bench_e2e
