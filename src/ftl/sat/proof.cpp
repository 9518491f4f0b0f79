#include "ftl/sat/proof.hpp"

#include <algorithm>
#include <chrono>

namespace ftl::sat {
namespace {

/// Sorted, deduplicated copy of a clause.
std::vector<Lit> canonical(std::vector<Lit> lits) {
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code < b.code; });
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  return lits;
}

/// Adds the wall-clock of its scope to a nanosecond total.
class BusyTimer {
 public:
  explicit BusyTimer(std::int64_t& total)
      : total_(total), start_(std::chrono::steady_clock::now()) {}
  ~BusyTimer() {
    total_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
  }
  BusyTimer(const BusyTimer&) = delete;
  BusyTimer& operator=(const BusyTimer&) = delete;

 private:
  std::int64_t& total_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

// ---------------------------------------------------------------------------
// MemoryProof

void MemoryProof::on_input(ClauseId id, const std::vector<Lit>& lits) {
  records_.push_back({ProofStep::kInput, id, lits, {}});
}

void MemoryProof::on_derive(ClauseId id, const std::vector<Lit>& lits,
                            const std::vector<ClauseId>& hints) {
  records_.push_back({ProofStep::kDerive, id, lits, hints});
}

void MemoryProof::on_delete(ClauseId id) {
  records_.push_back({ProofStep::kDelete, id, {}, {}});
}

// ---------------------------------------------------------------------------
// LratChecker

void LratChecker::fail(const char* why) {
  if (error_.empty()) error_ = why;
}

signed char LratChecker::value(Lit p) const {
  const auto v = static_cast<std::size_t>(p.var());
  if (stamp_[v] != epoch_) return 0;
  return p.positive() ? val_[v] : static_cast<signed char>(-val_[v]);
}

void LratChecker::assign(Lit p) {
  const auto v = static_cast<std::size_t>(p.var());
  stamp_[v] = epoch_;
  val_[v] = p.positive() ? 1 : -1;
}

bool LratChecker::store(ClauseId id, const std::vector<Lit>& lits) {
  if (id != clauses_.size() + 1) {
    fail("clause id out of sequence");
    return false;
  }
  for (const Lit p : lits) {
    if (!p.defined()) {
      fail("undefined literal in proof");
      return false;
    }
    const auto need = static_cast<std::size_t>(p.var()) + 1;
    if (need > stamp_.size()) {
      stamp_.resize(need, 0);
      val_.resize(need, 0);
    }
  }
  clauses_.push_back({pool_.size(), static_cast<std::uint32_t>(lits.size()),
                      true});
  pool_.insert(pool_.end(), lits.begin(), lits.end());
  if (lits.empty()) has_empty_ = true;
  return true;
}

/// Hinted RUP: under the negation of `lits`, every hint but the last must be
/// unit (it assigns its one open literal) and the last must be falsified.
bool LratChecker::refute(const std::vector<Lit>& lits,
                         const std::vector<ClauseId>& hints) {
  if (++epoch_ == 0) {  // wrapped: forget every stale stamp
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  for (const Lit p : lits) {
    const signed char v = value(p);
    if (v > 0) return true;  // p and ~p both present: a tautology
    if (v == 0) assign(~p);
  }
  for (std::size_t h = 0; h < hints.size(); ++h) {
    const ClauseId id = hints[h];
    if (id == 0 || id >= clauses_.size()) {
      fail("hint names a clause that was never added");
      return false;
    }
    const Clause& c = clauses_[id - 1];
    if (!c.alive) {
      fail("hint names a deleted clause");
      return false;
    }
    Lit open{-2};
    for (std::size_t k = c.begin; k < c.begin + c.size; ++k) {
      const Lit q = pool_[k];
      const signed char v = value(q);
      if (v < 0) continue;
      if (v > 0 || (open.defined() && open != q)) {
        fail("hint is not unit at its position");
        return false;
      }
      open = q;
    }
    if (!open.defined()) {
      if (h + 1 == hints.size()) return true;
      fail("hints continue past the conflict");
      return false;
    }
    assign(open);
  }
  fail("hint list stops before a conflict");
  return false;
}

void LratChecker::on_input(ClauseId id, const std::vector<Lit>& lits) {
  if (ok()) store(id, lits);
}

void LratChecker::on_derive(ClauseId id, const std::vector<Lit>& lits,
                            const std::vector<ClauseId>& hints) {
  if (!ok()) return;
  const BusyTimer timer(busy_ns_);
  // Stored first so the lemma's own literals have stamp slots; a failed
  // refutation poisons the checker, so the clause is never used.
  if (!store(id, lits) || !refute(lits, hints)) return;
  last_lemma_ = id;
  ++lemmas_;
}

void LratChecker::on_delete(ClauseId id) {
  if (!ok()) return;
  if (id == 0 || id > clauses_.size() || !clauses_[id - 1].alive) {
    fail("deletion names a clause that is not in the active set");
    return;
  }
  clauses_[id - 1].alive = false;
}

void LratChecker::apply(const ProofRecord& record) {
  switch (record.step) {
    case ProofStep::kInput: on_input(record.id, record.lits); break;
    case ProofStep::kDerive:
      on_derive(record.id, record.lits, record.hints);
      break;
    case ProofStep::kDelete: on_delete(record.id); break;
  }
}

ProofCheckResult LratChecker::verdict(const std::vector<Lit>& claim) {
  ProofCheckResult result;
  {
    const BusyTimer timer(busy_ns_);
    if (!ok()) {
      result.error = error_;
    } else if (has_empty_) {
      result.valid = true;
    } else if (last_lemma_ == 0) {
      result.error = "proof derives nothing";
    } else {
      const Clause& c = clauses_[last_lemma_ - 1];
      const auto first = pool_.begin() + static_cast<std::ptrdiff_t>(c.begin);
      result.valid = canonical(claim) ==
                     canonical(std::vector<Lit>(first, first + c.size));
      if (!result.valid) {
        result.error = "final derived clause differs from the certified claim";
      }
    }
  }
  result.lemmas = lemmas_;
  result.check_ms = static_cast<double>(busy_ns_) * 1e-6;
  lemmas_ = 0;
  busy_ns_ = 0;
  return result;
}

}  // namespace ftl::sat
