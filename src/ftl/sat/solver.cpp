#include "ftl/sat/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "ftl/sat/proof.hpp"
#include "ftl/util/error.hpp"

namespace ftl::sat {
namespace {

/// splitmix64 finalizer — the seed jitter must spread consecutive variable
/// indices across the activity range, and the raw seed+index sum does not.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
double luby(double y, int i) {
  int size = 1;
  int seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  double out = 1.0;
  for (int k = 0; k < seq; ++k) out *= y;
  return out;
}

}  // namespace

SatCore& sat_core() {
  static SatCore counters;
  return counters;
}

// ---------------------------------------------------------------------------

struct Solver::Impl {
  struct Clause {
    bool learnt = false;
    double activity = 0.0;
    ClauseId id = 0;  ///< proof id (0 unless logging)
    std::vector<Lit> lits;
  };

  explicit Impl(SolverOptions opts) : options(opts) {
    stats.seed = opts.seed;
    if (opts.certify) checker = std::make_unique<LratChecker>();
  }

  // -- state ----------------------------------------------------------------

  SolverOptions options;
  SolveStats stats;
  SolveStats flushed;  ///< last stats snapshot pushed to the global counters
  bool ok = true;

  // -- proof logging --------------------------------------------------------
  //
  // Everything here runs only while logging (certify or an attached sink),
  // and none of it feeds back into the search.

  std::unique_ptr<LratChecker> checker;  ///< certify's incremental checker
  ProofSink* extern_sink = nullptr;      ///< optional mirror (not owned)
  ProofStats proof;
  std::uint64_t flushed_proof_clauses = 0;
  std::unique_ptr<ProofCheckResult> last_check;
  ClauseId last_id = 0;
  /// Per var: id of a unit clause proving its level-0 value (0 = none).
  std::vector<ClauseId> unit_id;
  std::size_t level0_logged = 0;  ///< level-0 trail prefix with unit ids
  std::vector<ClauseId> hints;    ///< hints of the next derivation
  std::vector<const Clause*> chain;  ///< clauses a derivation resolves
  std::vector<const Clause*> used;   ///< analyze(): conflict, then reasons
  std::vector<char> hint_mark;       ///< per-var scratch
  std::vector<Var> marked;           ///< vars to unmark in hint_mark

  bool logging() const { return checker != nullptr || extern_sink != nullptr; }

  ClauseId emit_input(const std::vector<Lit>& lits) {
    ++proof.inputs;
    const ClauseId id = ++last_id;
    if (checker) checker->on_input(id, lits);
    if (extern_sink != nullptr) extern_sink->on_input(id, lits);
    return id;
  }

  /// Records `lits` as a lemma justified by the current `hints`.
  ClauseId emit_derive(const std::vector<Lit>& lits) {
    ++proof.derived;
    const ClauseId id = ++last_id;
    if (checker) checker->on_derive(id, lits, hints);
    if (extern_sink != nullptr) extern_sink->on_derive(id, lits, hints);
    return id;
  }

  void emit_delete(ClauseId id) {
    ++proof.deleted;
    if (checker) checker->on_delete(id);
    if (extern_sink != nullptr) extern_sink->on_delete(id);
  }

  void grow_proof_scratch() {
    if (unit_id.size() < assigns.size()) {
      unit_id.resize(assigns.size(), 0);
      hint_mark.resize(assigns.size(), 0);
    }
  }

  /// Sets `hints` to the LRAT justification of resolving `chain` in order:
  /// first a unit-clause id for every level-0 literal the chain's clauses
  /// rely on (except `skip`), then the chain's own ids. Units come first
  /// because they are unit under any assignment that leaves them open.
  void hint_chain(Var skip = -1) {
    hints.clear();
    for (const Clause* c : chain) {
      for (const Lit q : c->lits) {
        const auto v = static_cast<std::size_t>(q.var());
        if (level[v] != 0 || q.var() == skip || hint_mark[v] != 0) continue;
        hint_mark[v] = 1;
        marked.push_back(q.var());
        hints.push_back(unit_id[v]);
      }
    }
    for (const Var v : marked) hint_mark[static_cast<std::size_t>(v)] = 0;
    marked.clear();
    for (const Clause* c : chain) hints.push_back(c->id);
  }

  /// Derives a unit clause for every level-0 literal implied since the last
  /// call, from its reason and the units of the reason's other literals, so
  /// later derivations can cite a level-0 fact by one id.
  void log_level0_units() {
    grow_proof_scratch();
    for (; level0_logged < trail.size(); ++level0_logged) {
      const Lit p = trail[level0_logged];
      const auto v = static_cast<std::size_t>(p.var());
      if (unit_id[v] != 0) continue;  // an input or learnt unit
      chain.assign(1, reason[v]);
      hint_chain(p.var());
      unit_id[v] = emit_derive({p});
    }
  }

  /// The empty clause, from a clause falsified at level 0 (after
  /// log_level0_units has covered the level-0 trail).
  void log_empty_clause(const Clause* conflict_clause) {
    chain.assign(1, conflict_clause);
    hint_chain();
    emit_derive({});
  }

  /// Records the caller's clause (sorted) as an input. When add_clause
  /// stripped literals already false at level 0, the clause it keeps is a
  /// lemma: the stripped literals' units make the input falsified. Returns
  /// the id of `kept`.
  ClauseId log_input(std::vector<Lit> given, const std::vector<Lit>& kept) {
    grow_proof_scratch();
    given.erase(std::unique(given.begin(), given.end()), given.end());
    const ClauseId input = emit_input(given);
    if (given.size() == kept.size()) return input;
    hints.clear();
    for (const Lit q : given) {
      if (value(q) == LBool::kFalse) {
        hints.push_back(unit_id[static_cast<std::size_t>(q.var())]);
      }
    }
    hints.push_back(input);
    return emit_derive(kept);
  }

  /// The checker's final step on the kFalse just reached: the empty clause,
  /// or the failed-assumption clause in `conflict`.
  void certify_verdict() {
    if (!last_check) last_check = std::make_unique<ProofCheckResult>();
    *last_check = checker->verdict(conflict);
    ++proof.checks;
    SatCore& c = sat_core();
    c.proof_checks.add();
    if (!last_check->valid) {
      ++proof.failures;
      c.proof_failures.add();
    }
    c.proof_check_ns.add(
        static_cast<std::uint64_t>(std::llround(last_check->check_ms * 1e6)));
  }

  /// One watch-list entry: the watching clause plus a "blocker" literal —
  /// some other literal of the clause (initially the clause's other watch,
  /// refreshed on every inspection). When the blocker is already true the
  /// clause is satisfied and propagation skips it without touching the
  /// clause memory at all, which is where most propagation time goes on
  /// long watch lists (MiniSat 2.2's OccLists optimization).
  struct Watcher {
    Clause* clause = nullptr;
    Lit blocker{-2};
  };

  std::vector<std::unique_ptr<Clause>> clauses;  ///< problem clauses
  std::vector<std::unique_ptr<Clause>> learnts;  ///< learnt clauses
  /// watches[lit.code]: clauses that must be inspected when `lit` becomes
  /// true (i.e. clauses currently watching ~lit).
  std::vector<std::vector<Watcher>> watches;

  std::vector<LBool> assigns;     ///< per-var current value
  std::vector<char> polarity;     ///< per-var saved phase (1 = last true)
  std::vector<Clause*> reason;    ///< per-var implying clause (null=decision)
  std::vector<int> level;         ///< per-var decision level
  std::vector<double> activity;   ///< per-var VSIDS activity
  std::vector<char> seen;         ///< analyze() scratch
  std::vector<Lit> analyze_stack;    ///< lit_redundant() DFS worklist
  std::vector<Lit> analyze_toclear;  ///< seen[] marks to undo after analyze

  std::vector<Lit> trail;
  std::vector<int> trail_lim;  ///< trail index at each decision level
  std::size_t qhead = 0;       ///< propagation queue head into trail

  // Indexed max-heap over unassigned variables, ordered by activity with
  // index tie-break (lower index wins) so the search is deterministic.
  std::vector<Var> heap;
  std::vector<int> heap_pos;  ///< per-var position in heap, -1 = absent

  double var_inc = 1.0;
  double clause_inc = 1.0;
  std::size_t max_learnts = 0;

  std::vector<LBool> model;
  std::vector<Lit> conflict;  ///< failed assumptions of the last solve
  Lit constant_true{-2};

  // -- assignment primitives ------------------------------------------------

  LBool value(Var v) const { return assigns[static_cast<std::size_t>(v)]; }

  LBool value(Lit p) const {
    const LBool v = assigns[static_cast<std::size_t>(p.var())];
    if (v == LBool::kUndef) return LBool::kUndef;
    const bool truth = (v == LBool::kTrue) == p.positive();
    return truth ? LBool::kTrue : LBool::kFalse;
  }

  int decision_level() const { return static_cast<int>(trail_lim.size()); }

  void enqueue(Lit p, Clause* from) {
    const auto v = static_cast<std::size_t>(p.var());
    assigns[v] = p.positive() ? LBool::kTrue : LBool::kFalse;
    level[v] = decision_level();
    reason[v] = from;
    trail.push_back(p);
  }

  void cancel_until(int target_level) {
    if (decision_level() <= target_level) return;
    const int bound = trail_lim[static_cast<std::size_t>(target_level)];
    for (int i = static_cast<int>(trail.size()) - 1; i >= bound; --i) {
      const Lit p = trail[static_cast<std::size_t>(i)];
      const auto v = static_cast<std::size_t>(p.var());
      polarity[v] = p.positive() ? 1 : 0;  // phase saving
      assigns[v] = LBool::kUndef;
      reason[v] = nullptr;
      heap_insert(p.var());
    }
    trail.resize(static_cast<std::size_t>(bound));
    trail_lim.resize(static_cast<std::size_t>(target_level));
    qhead = trail.size();
  }

  // -- variable order heap --------------------------------------------------

  bool heap_before(Var a, Var b) const {
    const double aa = activity[static_cast<std::size_t>(a)];
    const double ab = activity[static_cast<std::size_t>(b)];
    return aa > ab || (aa == ab && a < b);
  }

  void heap_percolate_up(std::size_t i) {
    const Var v = heap[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!heap_before(v, heap[parent])) break;
      heap[i] = heap[parent];
      heap_pos[static_cast<std::size_t>(heap[i])] = static_cast<int>(i);
      i = parent;
    }
    heap[i] = v;
    heap_pos[static_cast<std::size_t>(v)] = static_cast<int>(i);
  }

  void heap_percolate_down(std::size_t i) {
    const Var v = heap[i];
    const std::size_t n = heap.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_before(heap[child + 1], heap[child])) ++child;
      if (!heap_before(heap[child], v)) break;
      heap[i] = heap[child];
      heap_pos[static_cast<std::size_t>(heap[i])] = static_cast<int>(i);
      i = child;
    }
    heap[i] = v;
    heap_pos[static_cast<std::size_t>(v)] = static_cast<int>(i);
  }

  void heap_insert(Var v) {
    if (heap_pos[static_cast<std::size_t>(v)] >= 0) return;
    heap.push_back(v);
    heap_percolate_up(heap.size() - 1);
  }

  void heap_update(Var v) {
    const int pos = heap_pos[static_cast<std::size_t>(v)];
    if (pos >= 0) heap_percolate_up(static_cast<std::size_t>(pos));
  }

  Var heap_pop() {
    const Var top = heap[0];
    heap_pos[static_cast<std::size_t>(top)] = -1;
    const Var last = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
      heap[0] = last;
      heap_pos[static_cast<std::size_t>(last)] = 0;
      heap_percolate_down(0);
    }
    return top;
  }

  // -- activity -------------------------------------------------------------

  void bump_var(Var v) {
    double& a = activity[static_cast<std::size_t>(v)];
    a += var_inc;
    if (a > 1e100) {
      for (double& x : activity) x *= 1e-100;
      var_inc *= 1e-100;
    }
    heap_update(v);
  }

  void decay_var_activity() { var_inc /= options.var_decay; }

  void bump_clause(Clause& c) {
    c.activity += clause_inc;
    if (c.activity > 1e20) {
      for (const auto& cl : learnts) cl->activity *= 1e-20;
      clause_inc *= 1e-20;
    }
  }

  void decay_clause_activity() { clause_inc /= options.clause_decay; }

  // -- clause attach/detach -------------------------------------------------

  void attach(Clause* c) {
    // Each watch blocks on the clause's *other* watched literal: if that one
    // is true the clause is satisfied and the visit is free.
    watches[static_cast<std::size_t>((~c->lits[0]).code)].push_back(
        {c, c->lits[1]});
    watches[static_cast<std::size_t>((~c->lits[1]).code)].push_back(
        {c, c->lits[0]});
  }

  void detach(Clause* c) {
    for (const Lit w : {c->lits[0], c->lits[1]}) {
      std::vector<Watcher>& list = watches[static_cast<std::size_t>((~w).code)];
      list.erase(std::find_if(list.begin(), list.end(),
                              [c](const Watcher& x) { return x.clause == c; }));
    }
  }

  /// True when `c` is the reason of its asserting literal and therefore must
  /// not be deleted.
  bool locked(const Clause* c) const {
    return value(c->lits[0]) == LBool::kTrue &&
           reason[static_cast<std::size_t>(c->lits[0].var())] == c;
  }

  // -- propagation ----------------------------------------------------------

  Clause* propagate() {
    Clause* conflict_clause = nullptr;
    while (qhead < trail.size()) {
      const Lit p = trail[qhead++];
      ++stats.propagations;
      std::vector<Watcher>& ws = watches[static_cast<std::size_t>(p.code)];
      std::size_t i = 0;
      std::size_t j = 0;
      const std::size_t end = ws.size();
      while (i != end) {
        const Watcher w = ws[i++];
        // Blocker already true: the clause is satisfied — keep the watch
        // without dereferencing the clause.
        if (value(w.blocker) == LBool::kTrue) {
          ws[j++] = w;
          continue;
        }
        Clause* c = w.clause;
        std::vector<Lit>& lits = c->lits;
        // Normalize: the false watched literal (~p) goes to slot 1.
        const Lit false_lit = ~p;
        if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
        const Lit first = lits[0];
        // Satisfied by the other watch: keep watching, with the satisfied
        // literal as the refreshed blocker (skip when it was the blocker —
        // its value is already known not-true).
        if (first != w.blocker && value(first) == LBool::kTrue) {
          ws[j++] = {c, first};
          continue;
        }
        // Look for a replacement watch among the tail literals.
        bool rewatched = false;
        for (std::size_t k = 2; k < lits.size(); ++k) {
          if (value(lits[k]) != LBool::kFalse) {
            std::swap(lits[1], lits[k]);
            watches[static_cast<std::size_t>((~lits[1]).code)].push_back(
                {c, first});
            rewatched = true;
            break;
          }
        }
        if (rewatched) continue;
        // Unit or conflicting under the current assignment.
        ws[j++] = {c, first};
        if (value(first) == LBool::kFalse) {
          conflict_clause = c;
          qhead = trail.size();
          while (i != end) ws[j++] = ws[i++];  // keep remaining watches
          break;
        }
        enqueue(first, c);
      }
      ws.resize(j);
      if (conflict_clause != nullptr) break;
    }
    return conflict_clause;
  }

  // -- conflict analysis (first UIP) ----------------------------------------

  void analyze(Clause* conflict_clause, std::vector<Lit>& out_learnt,
               int& out_btlevel) {
    out_learnt.clear();
    out_learnt.push_back(Lit{-2});  // slot 0: the asserting literal
    int path_count = 0;
    Lit p{-2};
    int index = static_cast<int>(trail.size()) - 1;
    const bool log = logging();
    if (log) used.clear();
    do {
      Clause& c = *conflict_clause;
      if (c.learnt) bump_clause(c);
      if (log) used.push_back(&c);
      // Skip slot 0 on reason clauses: it holds the resolved pivot itself.
      for (std::size_t k = p.defined() ? 1 : 0; k < c.lits.size(); ++k) {
        const Lit q = c.lits[k];
        const auto v = static_cast<std::size_t>(q.var());
        if (seen[v] == 0 && level[v] > 0) {
          seen[v] = 1;
          bump_var(q.var());
          if (level[v] >= decision_level()) {
            ++path_count;
          } else {
            out_learnt.push_back(q);
          }
        }
      }
      while (seen[static_cast<std::size_t>(
                 trail[static_cast<std::size_t>(index--)].var())] == 0) {
      }
      p = trail[static_cast<std::size_t>(index + 1)];
      conflict_clause = reason[static_cast<std::size_t>(p.var())];
      seen[static_cast<std::size_t>(p.var())] = 0;
      --path_count;
    } while (path_count > 0);
    out_learnt[0] = ~p;

    // Minimize by recursive self-subsumption BEFORE picking the backjump
    // level: dropping a literal can lower the second-highest level in the
    // clause, and slot 1 must hold the surviving watch.
    analyze_toclear.assign(out_learnt.begin(), out_learnt.end());
    if (options.minimize_learnts) {
      std::uint32_t abstract_levels = 0;
      for (std::size_t k = 1; k < out_learnt.size(); ++k) {
        abstract_levels |= abstract_level(out_learnt[k].var());
      }
      std::size_t j = 1;
      for (std::size_t k = 1; k < out_learnt.size(); ++k) {
        const Lit q = out_learnt[k];
        if (reason[static_cast<std::size_t>(q.var())] == nullptr ||
            !lit_redundant(q, abstract_levels)) {
          out_learnt[j++] = q;
        }
      }
      stats.minimized_literals += out_learnt.size() - j;
      out_learnt.resize(j);
    }

    // Backjump to the second-highest decision level in the clause, keeping
    // that literal in slot 1 so it becomes the other watch.
    out_btlevel = 0;
    if (out_learnt.size() > 1) {
      std::size_t max_i = 1;
      for (std::size_t k = 2; k < out_learnt.size(); ++k) {
        if (level[static_cast<std::size_t>(out_learnt[k].var())] >
            level[static_cast<std::size_t>(out_learnt[max_i].var())]) {
          max_i = k;
        }
      }
      std::swap(out_learnt[1], out_learnt[max_i]);
      out_btlevel = level[static_cast<std::size_t>(out_learnt[1].var())];
    }
    if (log) hint_learnt(out_learnt);
    // Clear from the pre-minimization snapshot plus lit_redundant's marks —
    // out_learnt alone would leave dropped literals' seen bits set.
    for (const Lit q : analyze_toclear) {
      seen[static_cast<std::size_t>(q.var())] = 0;
    }
  }

  /// LRAT hints of a learnt clause, in trail order under its negation: the
  /// reasons of the literals minimization dropped and of the intermediates
  /// lit_redundant walked (all below the conflict level), then the reasons
  /// resolved at the conflict level, last resolved first, then the conflict
  /// clause. Reads analyze()'s state before its seen marks are cleared:
  /// analyze_toclear holds the pre-minimization clause followed by the
  /// intermediates of every successful lit_redundant call.
  void hint_learnt(const std::vector<Lit>& learnt) {
    grow_proof_scratch();
    for (const Lit q : learnt) hint_mark[static_cast<std::size_t>(q.var())] = 1;
    int low = decision_level();
    for (std::size_t k = 1; k < analyze_toclear.size(); ++k) {
      const auto v = static_cast<std::size_t>(analyze_toclear[k].var());
      if (hint_mark[v] != 0) continue;  // kept in the clause
      hint_mark[v] = 2;
      low = std::min(low, level[v]);
    }
    chain.clear();
    if (low < decision_level()) {
      const auto from = static_cast<std::size_t>(
          trail_lim[static_cast<std::size_t>(low - 1)]);
      const auto to = static_cast<std::size_t>(trail_lim.back());
      for (std::size_t i = from; i < to; ++i) {
        const auto v = static_cast<std::size_t>(trail[i].var());
        if (hint_mark[v] == 2) chain.push_back(reason[v]);
      }
    }
    for (const Lit q : analyze_toclear) {
      hint_mark[static_cast<std::size_t>(q.var())] = 0;
    }
    chain.insert(chain.end(), used.rbegin(), used.rend() - 1);
    chain.push_back(used.front());
    hint_chain();
  }

  /// One-hot abstraction of a variable's decision level (MiniSat's
  /// abstractLevel): cheap set-membership filter for lit_redundant — a
  /// reason literal whose level bit is outside the learnt clause's level
  /// mask can never resolve away.
  std::uint32_t abstract_level(Var v) const {
    return 1u << (level[static_cast<std::size_t>(v)] & 31);
  }

  /// True when `p` is implied by the rest of the learnt clause: DFS through
  /// reason clauses, succeeding only if every path bottoms out in literals
  /// already in the clause (seen) or at level 0. Redundant intermediates
  /// keep their seen mark as memoization (undone after analyze via
  /// analyze_toclear); on failure all marks added by this call are unwound.
  bool lit_redundant(Lit p, std::uint32_t abstract_levels) {
    analyze_stack.clear();
    analyze_stack.push_back(p);
    const std::size_t top = analyze_toclear.size();
    while (!analyze_stack.empty()) {
      const Lit q = analyze_stack.back();
      analyze_stack.pop_back();
      const Clause& c = *reason[static_cast<std::size_t>(q.var())];
      // Slot 0 of a reason clause is the implied literal itself.
      for (std::size_t k = 1; k < c.lits.size(); ++k) {
        const Lit l = c.lits[k];
        const auto v = static_cast<std::size_t>(l.var());
        if (seen[v] != 0 || level[v] == 0) continue;
        if (reason[v] != nullptr &&
            (abstract_level(l.var()) & abstract_levels) != 0) {
          seen[v] = 1;
          analyze_stack.push_back(l);
          analyze_toclear.push_back(l);
        } else {
          for (std::size_t i = top; i < analyze_toclear.size(); ++i) {
            seen[static_cast<std::size_t>(analyze_toclear[i].var())] = 0;
          }
          analyze_toclear.resize(top);
          return false;
        }
      }
    }
    return true;
  }

  /// Failed-assumption extraction: the conflict set reached from ~p through
  /// reasons, reported as the subset of assumptions that cannot hold jointly.
  /// `p` is the negation of the failed assumption (true in the current
  /// assignment); the emitted set holds negations of conflicting
  /// assumptions, MiniSat's convention.
  void analyze_final(Lit p) {
    conflict.clear();
    conflict.push_back(p);
    const bool log = logging();
    if (log) chain.clear();
    if (decision_level() == 0) {
      if (log) log_failed_clause(p);
      return;
    }
    seen[static_cast<std::size_t>(p.var())] = 1;
    for (int i = static_cast<int>(trail.size()) - 1;
         i >= trail_lim[0]; --i) {
      const Var x = trail[static_cast<std::size_t>(i)].var();
      const auto xi = static_cast<std::size_t>(x);
      if (seen[xi] == 0) continue;
      if (reason[xi] == nullptr) {
        conflict.push_back(~trail[static_cast<std::size_t>(i)]);
      } else {
        const Clause& c = *reason[xi];
        if (log) chain.push_back(&c);
        for (std::size_t k = 1; k < c.lits.size(); ++k) {
          const auto v = static_cast<std::size_t>(c.lits[k].var());
          if (level[v] > 0) seen[v] = 1;
        }
      }
      seen[xi] = 0;
    }
    seen[static_cast<std::size_t>(p.var())] = 0;
    if (log) log_failed_clause(p);
  }

  /// Records analyze_final's clause as a lemma. Its hints are the reasons
  /// the walk visited (collected in `chain`, newest first) in trail order:
  /// under the assumptions each is unit, and the last, the reason of p, is
  /// falsified by ~p. A p fixed at level 0 is refuted by its unit alone.
  void log_failed_clause(Lit p) {
    grow_proof_scratch();
    if (level[static_cast<std::size_t>(p.var())] == 0) {
      hints.assign(1, unit_id[static_cast<std::size_t>(p.var())]);
    } else {
      std::reverse(chain.begin(), chain.end());
      hint_chain();
    }
    emit_derive(conflict);
  }

  void record_learnt(std::vector<Lit> lits, int btlevel) {
    ++stats.learned_clauses;
    stats.learned_literals += lits.size();
    const ClauseId id = logging() ? emit_derive(lits) : 0;
    cancel_until(btlevel);
    if (lits.size() == 1) {
      if (id != 0) unit_id[static_cast<std::size_t>(lits[0].var())] = id;
      enqueue(lits[0], nullptr);
      return;
    }
    auto clause = std::make_unique<Clause>();
    clause->learnt = true;
    clause->id = id;
    clause->lits = std::move(lits);
    bump_clause(*clause);
    attach(clause.get());
    Clause* raw = clause.get();
    learnts.push_back(std::move(clause));
    enqueue(raw->lits[0], raw);
  }

  /// Drops the lower-activity half of the learnt clauses (locked and binary
  /// clauses are kept). Order ties resolve on insertion order, which is
  /// stable, so reduction is deterministic.
  void reduce_learnts() {
    std::stable_sort(learnts.begin(), learnts.end(),
                     [](const std::unique_ptr<Clause>& a,
                        const std::unique_ptr<Clause>& b) {
                       return a->activity < b->activity;
                     });
    const std::size_t target = learnts.size() / 2;
    std::vector<std::unique_ptr<Clause>> kept;
    kept.reserve(learnts.size() - target);
    std::size_t dropped = 0;
    for (std::size_t i = 0; i < learnts.size(); ++i) {
      Clause* c = learnts[i].get();
      if (dropped < target && c->lits.size() > 2 && !locked(c)) {
        if (logging()) emit_delete(c->id);
        detach(c);
        ++dropped;
        ++stats.deleted_clauses;
      } else {
        kept.push_back(std::move(learnts[i]));
      }
    }
    learnts = std::move(kept);
  }

  // -- search ---------------------------------------------------------------

  Lit pick_branch_lit() {
    while (!heap.empty()) {
      const Var v = heap_pop();
      if (value(v) == LBool::kUndef) {
        return Lit::of(v, polarity[static_cast<std::size_t>(v)] != 0);
      }
    }
    return Lit{-2};
  }

  /// One restart's worth of search. kTrue/kFalse decide the instance;
  /// kUndef means restart (or budget exhaustion — caller re-checks).
  LBool search(std::int64_t conflict_limit, std::int64_t budget_limit,
               const std::vector<Lit>& assumptions) {
    std::int64_t local_conflicts = 0;
    std::vector<Lit> learnt;
    for (;;) {
      Clause* conflict_clause = propagate();
      if (decision_level() == 0 && logging()) log_level0_units();
      if (conflict_clause != nullptr) {
        ++stats.conflicts;
        ++local_conflicts;
        if (decision_level() == 0) {
          if (logging()) log_empty_clause(conflict_clause);
          ok = false;
          return LBool::kFalse;
        }
        int btlevel = 0;
        analyze(conflict_clause, learnt, btlevel);
        record_learnt(learnt, btlevel);
        decay_var_activity();
        decay_clause_activity();
        continue;
      }
      // No conflict: restart / budget / reduce checks, then a new decision.
      if (local_conflicts >= conflict_limit ||
          (budget_limit >= 0 &&
           static_cast<std::int64_t>(stats.conflicts) >= budget_limit)) {
        cancel_until(0);
        return LBool::kUndef;
      }
      if (max_learnts > 0 && learnts.size() >= max_learnts) {
        reduce_learnts();
        max_learnts += max_learnts / 2;
      }
      Lit next{-2};
      while (decision_level() < static_cast<int>(assumptions.size())) {
        const Lit a = assumptions[static_cast<std::size_t>(decision_level())];
        if (value(a) == LBool::kTrue) {
          trail_lim.push_back(static_cast<int>(trail.size()));
        } else if (value(a) == LBool::kFalse) {
          analyze_final(~a);
          return LBool::kFalse;
        } else {
          next = a;
          break;
        }
      }
      if (!next.defined()) {
        next = pick_branch_lit();
        if (!next.defined()) return LBool::kTrue;  // all variables assigned
        ++stats.decisions;
      }
      trail_lim.push_back(static_cast<int>(trail.size()));
      enqueue(next, nullptr);
    }
  }

  void flush_counters(LBool result) {
    SatCore& c = sat_core();
    c.solves.add();
    if (result == LBool::kTrue) c.sat.add();
    if (result == LBool::kFalse) c.unsat.add();
    c.conflicts.add(stats.conflicts - flushed.conflicts);
    c.decisions.add(stats.decisions - flushed.decisions);
    c.propagations.add(stats.propagations - flushed.propagations);
    c.restarts.add(stats.restarts - flushed.restarts);
    c.learned_clauses.add(stats.learned_clauses - flushed.learned_clauses);
    c.minimized_literals.add(stats.minimized_literals -
                             flushed.minimized_literals);
    c.proof_clauses.add(proof.derived - flushed_proof_clauses);
    flushed_proof_clauses = proof.derived;
    flushed = stats;
  }
};

// ---------------------------------------------------------------------------

Solver::Solver(SolverOptions options) : impl_(new Impl(options)) {}

Solver::~Solver() = default;

Var Solver::new_var() {
  Impl& im = *impl_;
  const Var v = static_cast<Var>(im.assigns.size());
  im.assigns.push_back(LBool::kUndef);
  im.polarity.push_back(0);
  im.reason.push_back(nullptr);
  im.level.push_back(0);
  // Seed-derived jitter (well below one bump) so different seeds explore
  // different orders while staying fully deterministic per seed.
  im.activity.push_back(
      1e-12 * static_cast<double>(mix64(im.options.seed * 0x10001 +
                                        static_cast<std::uint64_t>(v)) &
                                  0xfffffu));
  im.seen.push_back(0);
  im.heap_pos.push_back(-1);
  im.watches.emplace_back();
  im.watches.emplace_back();
  im.heap_insert(v);
  return v;
}

int Solver::num_vars() const {
  return static_cast<int>(impl_->assigns.size());
}

Lit Solver::true_lit() {
  Impl& im = *impl_;
  if (!im.constant_true.defined()) {
    const Lit t = Lit::of(new_var());
    im.constant_true = t;
    add_clause({t});
  }
  return im.constant_true;
}

bool Solver::add_clause(std::vector<Lit> lits) {
  Impl& im = *impl_;
  FTL_EXPECTS(im.decision_level() == 0);
  if (!im.ok) return false;
  for (const Lit p : lits) {
    FTL_EXPECTS(p.defined() && p.var() < num_vars());
  }
  // Canonicalize: sort by code, merge duplicates, detect tautologies, and
  // drop literals already decided at level 0.
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code < b.code; });
  std::vector<Lit> out;
  out.reserve(lits.size());
  for (const Lit p : lits) {
    if (!out.empty() && p == out.back()) continue;
    if (!out.empty() && p == ~out.back()) return true;  // tautology
    if (im.value(p) == LBool::kTrue) return true;       // already satisfied
    if (im.value(p) == LBool::kFalse) continue;         // already falsified
    out.push_back(p);
  }
  const ClauseId id = im.logging() ? im.log_input(std::move(lits), out) : 0;
  if (out.empty()) {
    im.ok = false;
    return false;
  }
  if (out.size() == 1) {
    if (id != 0) im.unit_id[static_cast<std::size_t>(out[0].var())] = id;
    im.enqueue(out[0], nullptr);
    Impl::Clause* conflict_clause = im.propagate();
    if (im.logging()) im.log_level0_units();
    if (conflict_clause != nullptr) {
      if (im.logging()) im.log_empty_clause(conflict_clause);
      im.ok = false;
      return false;
    }
    return true;
  }
  auto clause = std::make_unique<Impl::Clause>();
  clause->id = id;
  clause->lits = std::move(out);
  im.attach(clause.get());
  im.clauses.push_back(std::move(clause));
  return true;
}

bool Solver::okay() const { return impl_->ok; }

LBool Solver::solve(const std::vector<Lit>& assumptions) {
  Impl& im = *impl_;
  ++im.stats.solves;
  im.model.clear();
  im.conflict.clear();
  if (!im.ok) {
    im.flush_counters(LBool::kFalse);
    if (im.checker) im.certify_verdict();
    return LBool::kFalse;
  }
  if (im.max_learnts == 0) {
    im.max_learnts = std::max<std::size_t>(1000, im.clauses.size() / 3);
  }
  const std::int64_t budget_limit =
      im.options.max_conflicts < 0
          ? -1
          : static_cast<std::int64_t>(im.stats.conflicts) +
                im.options.max_conflicts;
  LBool status = LBool::kUndef;
  for (int restart = 0; status == LBool::kUndef; ++restart) {
    if (restart > 0) ++im.stats.restarts;
    const double units = luby(2.0, restart);
    status = im.search(
        static_cast<std::int64_t>(units * im.options.restart_base),
        budget_limit, assumptions);
    if (status == LBool::kUndef && budget_limit >= 0 &&
        static_cast<std::int64_t>(im.stats.conflicts) >= budget_limit) {
      break;  // budget exhausted: report kUndef, solver stays usable
    }
  }
  if (status == LBool::kTrue) {
    im.model = im.assigns;
  }
  im.cancel_until(0);
  im.flush_counters(status);
  if (status == LBool::kFalse && im.checker) im.certify_verdict();
  return status;
}

LBool Solver::model_value(Var v) const {
  const Impl& im = *impl_;
  if (static_cast<std::size_t>(v) >= im.model.size()) return LBool::kUndef;
  return im.model[static_cast<std::size_t>(v)];
}

LBool Solver::model_value(Lit p) const {
  const LBool v = model_value(p.var());
  if (v == LBool::kUndef) return LBool::kUndef;
  const bool truth = (v == LBool::kTrue) == p.positive();
  return truth ? LBool::kTrue : LBool::kFalse;
}

const std::vector<Lit>& Solver::failed_assumptions() const {
  return impl_->conflict;
}

void Solver::set_max_conflicts(std::int64_t budget) {
  impl_->options.max_conflicts = budget;
}

void Solver::set_proof_sink(ProofSink* sink) { impl_->extern_sink = sink; }

const ProofCheckResult* Solver::last_proof_check() const {
  return impl_->last_check.get();
}

const ProofStats& Solver::proof_stats() const { return impl_->proof; }

const SolveStats& Solver::stats() const { return impl_->stats; }

const SolverOptions& Solver::options() const { return impl_->options; }

std::size_t Solver::num_clauses() const { return impl_->clauses.size(); }

std::size_t Solver::num_learnts() const { return impl_->learnts.size(); }

}  // namespace ftl::sat
