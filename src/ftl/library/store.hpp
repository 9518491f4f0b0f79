#pragma once
// Content-addressed store of best-known lattices, one record per NPN class.
//
// The key is npn_key(canonical table); the value holds up to two lattices,
// one per output phase — the grid duality (4-connected ON paths vs
// 8-connected OFF cuts) means a stored lattice for f cannot be relabeled
// into one for ¬f, so the complement phase is its own slot even though ¬f
// canonicalizes to the same class. Each slot remembers which engine found
// the lattice, with what seed, and how long it took, so a library can be
// audited and selectively rebuilt.
//
// The in-memory index is sharded 16 ways behind jobs::mix64 (same routing
// as the serve cache). On disk each class is one jobs::ResultCache artifact
// under job name "npn_lattice" — atomic temp-file-plus-rename stores, and a
// corrupt or truncated file reads as a miss.

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ftl/jobs/cache.hpp"
#include "ftl/lattice/lattice.hpp"
#include "ftl/logic/truth_table.hpp"
#include "ftl/util/counters.hpp"

namespace ftl::library {

/// Best-known lattice for one output phase of one NPN class, plus the
/// provenance needed to audit or reproduce it.
struct LibraryEntry {
  lattice::Lattice lattice;
  std::string engine;     ///< "altun", "sat", ...
  std::uint64_t seed = 0;
  double cost_ms = 0;     ///< wall-clock cost of the search that found it
  /// Stamped by `ftl_lattice_lib verify --certify`: the entry passed a
  /// proof-checked SAT equivalence AND every smaller shape was proven
  /// infeasible with a checker-accepted LRAT proof (shape-minimality).
  /// Reset whenever a smaller lattice replaces the entry — the certificate
  /// belongs to the lattice, not the class.
  bool certified = false;
};

/// Everything stored for one NPN class. `direct` realizes the canonical
/// table, `complement` realizes its negation.
struct LibraryClass {
  logic::TruthTable canonical;
  std::optional<LibraryEntry> direct;
  std::optional<LibraryEntry> complement;
};

/// Monotonic counters of one library, reported by the serve `stats` op in
/// `library_core`. The lookup-path counters are bumped by
/// library::synthesize, the mutation/disk counters by the store itself.
/// class_hits vs misses is the headline ratio: a hit answers a synth
/// request with no engine work.
struct LibraryCounters {
  util::CounterSet set{"library_core"};
  util::Counter& lookups = set.declare("lookups");
  util::Counter& class_hits = set.declare("class_hits");
  util::Counter& misses = set.declare("misses");
  util::Counter& unapplies = set.declare("unapplies");
  util::Counter& output_inversions = set.declare("output_inversions");
  util::Counter& verify_rejects = set.declare("verify_rejects");
  util::Counter& populates = set.declare("populates");
  util::Counter& improvements = set.declare("improvements");
  util::Counter& disk_loads = set.declare("disk_loads");
  util::Counter& disk_stores = set.declare("disk_stores");
};

class LatticeLibrary {
 public:
  /// Memory-only library (tests, throwaway precompute runs).
  LatticeLibrary();

  /// Disk-backed library rooted at `dir` (created when missing; throws
  /// ftl::Error when that fails). Memory is a write-through cache of disk:
  /// lookups fault classes in lazily, inserts persist the whole class.
  explicit LatticeLibrary(std::string dir);

  /// "" for a memory-only library.
  const std::string& dir() const { return dir_; }

  /// Best-known lattice for the class `key`, complement phase when
  /// `complement`. Faults in the on-disk record when memory has no entry
  /// for the requested slot.
  std::optional<LibraryEntry> find(std::uint64_t key, bool complement);

  /// Offers `entry` for one phase slot. It is kept when the slot is empty
  /// or the new lattice has strictly fewer cells (ties keep the incumbent),
  /// and the class record is rewritten to disk. Returns true when kept.
  /// `canonical` must be the canonicalize() representative whose key is
  /// `key`; callers are responsible for having verified the lattice.
  bool insert(std::uint64_t key, const logic::TruthTable& canonical,
              bool complement, LibraryEntry entry);

  /// Flips the certified bit on an existing phase slot and rewrites the
  /// class record to disk. Returns false when the slot is empty (nothing to
  /// stamp); a no-op stamp (bit already equal) skips the disk write.
  bool stamp_certified(std::uint64_t key, bool complement, bool certified);

  /// Loads every on-disk class record into memory (CLI inspection /
  /// verification). Returns the number of classes now indexed.
  std::size_t load_all();

  /// Copy of the whole in-memory index, key-sorted (CLI inspection).
  std::vector<std::pair<std::uint64_t, LibraryClass>> snapshot() const;

  std::size_t num_classes() const;
  std::size_t num_entries() const;

  LibraryCounters& counters() { return counters_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, LibraryClass> classes;
  };

  static constexpr std::size_t kShards = 16;

  Shard& shard_of(std::uint64_t key);
  const Shard& shard_of(std::uint64_t key) const;

  /// Parses one on-disk record and merges it into memory (keeping whichever
  /// side has fewer cells per slot). Returns the merged class, or nullopt
  /// when there is no (readable) record.
  std::optional<LibraryClass> fault_in(std::uint64_t key);

  std::string dir_;
  std::optional<jobs::ResultCache> cache_;
  std::array<Shard, kShards> shards_;
  LibraryCounters counters_;
};

}  // namespace ftl::library
