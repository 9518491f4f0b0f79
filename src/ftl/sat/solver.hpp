#pragma once
// Embedded conflict-driven clause-learning (CDCL) SAT solver.
//
// The lattice-realization search of arXiv:2202.09551 and the crossbar
// verification of arXiv:2301.08611 are both SAT-shaped; this solver is the
// engine behind lattice::synth_sat and the check::equivalence SAT backend.
// It is a self-contained MiniSat-style core: two-watched-literal unit
// propagation, VSIDS-style variable activity with phase saving, first-UIP
// conflict analysis with clause learning, activity-sorted learnt-clause
// reduction, Luby restarts, and incremental solving (clauses may be added
// between solve() calls, and solve() accepts assumption literals).
//
// Determinism contract: identical inputs (variable/clause creation order,
// options, assumption order) produce identical search traces, models, and
// statistics. All tie-breaks resolve on variable index; the only "random"
// ingredient is a deterministic seed-derived jitter on initial activities,
// and the seed is reported back in SolveStats for reproducibility in logs.

#include <cstdint>
#include <memory>
#include <vector>

#include "ftl/util/counters.hpp"

namespace ftl::sat {

/// 0-based propositional variable index.
using Var = std::int32_t;

/// A literal, packed as 2*var + (negative ? 1 : 0). The default-constructed
/// literal is undefined and must not reach the solver.
struct Lit {
  std::int32_t code = -2;

  static Lit of(Var v, bool positive = true) {
    return Lit{2 * v + (positive ? 0 : 1)};
  }
  Var var() const { return code >> 1; }
  bool positive() const { return (code & 1) == 0; }
  bool defined() const { return code >= 0; }
  Lit operator~() const { return Lit{code ^ 1}; }

  friend bool operator==(const Lit&, const Lit&) = default;
};

/// Three-valued truth value, for partial assignments and solve() results.
enum class LBool : std::int8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

struct SolverOptions {
  /// Deterministic jitter on initial variable activities; echoed in
  /// SolveStats so a logged result names the ordering that produced it.
  std::uint64_t seed = 1;
  double var_decay = 0.95;      ///< VSIDS activity decay per conflict
  double clause_decay = 0.999;  ///< learnt-clause activity decay per conflict
  int restart_base = 128;       ///< conflicts per Luby restart unit
  /// Conflict budget per solve() call; kUndef is returned when it runs out
  /// (the solver stays usable and the budget can be raised). -1 = unlimited.
  std::int64_t max_conflicts = -1;
  /// Minimize learnt clauses by recursive self-subsumption before they are
  /// recorded: a literal whose reason clause resolves away entirely within
  /// the learnt clause's level set is implied by the rest of the clause and
  /// is dropped. Shorter learnt clauses propagate more and cost less to
  /// walk; disable only for differential testing against the raw first-UIP
  /// clauses (verdicts are identical either way).
  bool minimize_learnts = true;
  /// Log an LRAT proof into the solver's own LratChecker (sat/proof.hpp),
  /// making every UNSAT answer machine-checked instead of trusted. Each
  /// learnt clause carries the ids of the clauses conflict analysis
  /// resolved, and the checker verifies it once, on arrival, by unit
  /// propagation over those clauses alone; a kFalse verdict then costs one
  /// final hinted step, whatever the solver answered before. The verdict is
  /// available via last_proof_check(). Search, models and SolveStats are
  /// identical with certify on or off.
  bool certify = false;
};

/// Cumulative per-solver statistics (monotonic across solve() calls).
struct SolveStats {
  std::uint64_t solves = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;  ///< literals dequeued by unit propagation
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_literals = 0;
  std::uint64_t deleted_clauses = 0;  ///< learnt clauses dropped by reduce
  /// Literals removed from learnt clauses by self-subsumption minimization
  /// (SolverOptions::minimize_learnts).
  std::uint64_t minimized_literals = 0;
  std::uint64_t seed = 1;             ///< decision seed (from SolverOptions)
};

/// Per-solver proof-logging statistics (monotonic; all zero unless a proof
/// sink is attached or SolverOptions::certify is set).
struct ProofStats {
  std::uint64_t inputs = 0;    ///< input clauses recorded
  std::uint64_t derived = 0;   ///< lemmas recorded (learnt, unit, final)
  std::uint64_t deleted = 0;   ///< deletions recorded
  std::uint64_t checks = 0;    ///< auto-checks run on kFalse verdicts
  std::uint64_t failures = 0;  ///< auto-checks that rejected the proof
};

class ProofSink;
struct ProofCheckResult;

class Solver {
 public:
  explicit Solver(SolverOptions options = {});
  ~Solver();

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Creates a fresh unassigned variable and returns its index.
  Var new_var();
  int num_vars() const;

  /// A literal that is constant-true in every model (a lazily created
  /// variable pinned by a unit clause). Encoders use it for constant cells.
  Lit true_lit();

  /// Adds a clause over existing variables. Tautologies are dropped,
  /// duplicate literals merged, and literals already false at level 0
  /// removed. Returns false when the formula has become unsatisfiable at
  /// level 0 (okay() turns false and stays false). Must be called between
  /// solve() calls, never from inside one.
  bool add_clause(std::vector<Lit> lits);

  /// False once the clause set is known unsatisfiable at level 0.
  bool okay() const;

  /// Decides satisfiability under the (possibly empty) assumption literals.
  /// kTrue: a model is available via model_value(). kFalse: unsatisfiable
  /// under the assumptions (permanently so when okay() is now false).
  /// kUndef: the max_conflicts budget ran out; callers may add clauses,
  /// raise the budget, and call solve() again.
  LBool solve(const std::vector<Lit>& assumptions = {});

  /// Value of a variable / literal in the most recent satisfying model.
  LBool model_value(Var v) const;
  LBool model_value(Lit p) const;

  /// After solve() returned kFalse under assumptions: the subset of the
  /// assumptions (negated) proven jointly unsatisfiable with the clauses.
  const std::vector<Lit>& failed_assumptions() const;

  /// Replaces the per-solve conflict budget (see SolverOptions).
  void set_max_conflicts(std::int64_t budget);

  /// Mirrors the LRAT proof events (inputs, hinted derivations, deletions)
  /// into an external sink, e.g. a MemoryProof to replay into a fresh
  /// checker, with or without certify. Must be attached before the first
  /// add_clause; pass nullptr to detach. Not owned.
  void set_proof_sink(ProofSink* sink);

  /// Verdict of the proof check run on the most recent kFalse result
  /// (certify only; nullptr before the first UNSAT): validity, the first
  /// error, and the checker time and lemmas since the previous verdict.
  const ProofCheckResult* last_proof_check() const;

  const ProofStats& proof_stats() const;

  const SolveStats& stats() const;
  const SolverOptions& options() const;
  std::size_t num_clauses() const;  ///< problem clauses currently attached
  std::size_t num_learnts() const;  ///< learnt clauses currently attached

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Process-wide solver counters, reported by the serve `stats` op as
/// `sat_core`. Flushed once per solve() call, not per propagation, so the
/// hot loop pays no atomic traffic.
struct SatCore {
  util::CounterSet set{"sat_core"};
  util::Counter& solves = set.declare("solves");
  util::Counter& sat = set.declare("sat");      ///< solve() calls giving kTrue
  util::Counter& unsat = set.declare("unsat");  ///< solve() calls giving kFalse
  util::Counter& conflicts = set.declare("conflicts");
  util::Counter& decisions = set.declare("decisions");
  util::Counter& propagations = set.declare("propagations");
  util::Counter& restarts = set.declare("restarts");
  util::Counter& learned_clauses = set.declare("learned_clauses");
  /// literals dropped by clause minimization
  util::Counter& minimized_literals = set.declare("minimized_literals");
  /// refinement rounds of the CEGAR drivers (lattice::synth_sat)
  util::Counter& cegar_rounds = set.declare("cegar_rounds");
  /// derived clauses logged to proofs
  util::Counter& proof_clauses = set.declare("proof_clauses");
  /// certified kFalse verdicts, and those whose proof was rejected
  util::Counter& proof_checks = set.declare("proof_checks");
  util::Counter& proof_failures = set.declare("proof_failures");
  /// cumulative checker wall-clock, summed in ns and reported in µs
  util::Counter& proof_check_ns = set.declare("proof_check_us", 1000);
};

SatCore& sat_core();

}  // namespace ftl::sat
