#pragma once
// LRAT proof logging and checking for the embedded CDCL solver.
//
// Every UNSAT verdict the solver hands out can be backed by a clausal proof
// in LRAT form (Cruz-Filipe et al., "Efficient Certified RAT Verification",
// CADE 2017). Input and derived clauses share one id sequence, and every
// derived clause ("lemma") lists the ids of the clauses ("hints") that,
// taken in order under the lemma's negation, each become unit until the
// last one is falsified. LratChecker verifies each lemma once, when it
// arrives, by walking its hints alone: no watch lists, no search, no
// backward pass. Certifying a verdict is then one final hinted step,
// however many queries the solver answered before it.
//
// The trusted-core boundary: the checker trusts only the recorded input
// clauses and its own hinted propagation. It shares no code with the CDCL
// core, so a bogus UNSAT would need two independent bugs that agree.
//
// Proof sinks are pluggable: under SolverOptions::certify the solver feeds
// its own LratChecker, and a sink attached with Solver::set_proof_sink (a
// MemoryProof, say, to replay into a fresh checker) sees the same events.

#include <cstdint>
#include <string>
#include <vector>

#include "ftl/sat/solver.hpp"

namespace ftl::sat {

/// Proof clause id. Input and derived clauses are numbered 1, 2, 3, ... in
/// the order they are recorded.
using ClauseId = std::uint64_t;

enum class ProofStep : std::uint8_t {
  kInput,   ///< axiom: a clause handed to the solver
  kDerive,  ///< lemma: refuted by unit propagation over its hints
  kDelete,  ///< a clause leaves the active set
};

struct ProofRecord {
  ProofStep step = ProofStep::kInput;
  ClauseId id = 0;
  std::vector<Lit> lits;        ///< empty for kDelete
  std::vector<ClauseId> hints;  ///< kDerive only, in propagation order
};

/// Receives proof events from the solver in derivation order. Implementations
/// must not call back into the emitting solver.
class ProofSink {
 public:
  virtual ~ProofSink() = default;
  virtual void on_input(ClauseId id, const std::vector<Lit>& lits) = 0;
  virtual void on_derive(ClauseId id, const std::vector<Lit>& lits,
                         const std::vector<ClauseId>& hints) = 0;
  virtual void on_delete(ClauseId id) = 0;
};

/// Records every event, e.g. to replay a solver's proof into a fresh checker.
class MemoryProof : public ProofSink {
 public:
  void on_input(ClauseId id, const std::vector<Lit>& lits) override;
  void on_derive(ClauseId id, const std::vector<Lit>& lits,
                 const std::vector<ClauseId>& hints) override;
  void on_delete(ClauseId id) override;

  const std::vector<ProofRecord>& records() const { return records_; }

 private:
  std::vector<ProofRecord> records_;
};

struct ProofCheckResult {
  bool valid = false;
  std::string error;       ///< empty when valid; the first failure otherwise
  std::size_t lemmas = 0;  ///< lemmas checked since the previous verdict
  double check_ms = 0.0;   ///< checker wall-clock since the previous verdict
};

/// Incremental LRAT checker. Events arrive in proof order; ids must follow
/// the sequence 1, 2, 3, ... and every hint must name a live clause with a
/// smaller id. The first failure is sticky: every later verdict repeats it.
class LratChecker final : public ProofSink {
 public:
  void on_input(ClauseId id, const std::vector<Lit>& lits) override;
  void on_derive(ClauseId id, const std::vector<Lit>& lits,
                 const std::vector<ClauseId>& hints) override;
  void on_delete(ClauseId id) override;

  /// Feeds one recorded event.
  void apply(const ProofRecord& record);

  /// Certifies `claim`: empty = the empty clause (plain UNSAT), otherwise
  /// the failed-assumption clause of an assumption-based UNSAT, which must
  /// be the newest lemma. Valid when every step so far checked and the
  /// claim is derived; the empty clause, once present, implies any claim.
  ProofCheckResult verdict(const std::vector<Lit>& claim = {});

  bool ok() const { return error_.empty(); }

 private:
  struct Clause {
    std::size_t begin = 0;  ///< offset into pool_
    std::uint32_t size = 0;
    bool alive = false;
  };

  void fail(const char* why);
  bool store(ClauseId id, const std::vector<Lit>& lits);
  bool refute(const std::vector<Lit>& lits,
              const std::vector<ClauseId>& hints);
  signed char value(Lit p) const;
  void assign(Lit p);

  std::vector<Lit> pool_;         ///< every clause's literals, back to back
  std::vector<Clause> clauses_;   ///< indexed by id - 1
  std::vector<std::uint32_t> stamp_;  ///< per var: epoch of its assignment
  std::vector<signed char> val_;      ///< per var: +1 / -1 under stamp_
  std::uint32_t epoch_ = 0;

  std::string error_;
  bool has_empty_ = false;
  ClauseId last_lemma_ = 0;
  std::size_t lemmas_ = 0;  ///< lemmas checked since the previous verdict
  std::int64_t busy_ns_ = 0;
};

}  // namespace ftl::sat
