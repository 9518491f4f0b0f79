// ftl::library: NPN canonicalization is exact for <= 4 variables (222
// classes at 4 vars) and class-invariant for 5-6; transforms invert and
// round-trip; lattice relabeling tracks the table transform; the store
// round-trips through disk with a fewer-cells-wins policy; and
// lookup-first synthesis answers NPN-equivalent requests from the library
// with lattices that realize exactly the requested function; and the
// `ftl_lattice_lib verify --certify` audit finishes on entries too large
// for the SAT encoding.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <random>
#include <vector>

#include "ftl/lattice/function.hpp"
#include "ftl/library/npn.hpp"
#include "ftl/library/precompute.hpp"
#include "ftl/library/store.hpp"
#include "ftl/library/synthesize.hpp"
#include "ftl/logic/expr_parser.hpp"
#include "ftl/logic/truth_table.hpp"

namespace {

using namespace ftl;
using library::NpnTransform;
using logic::TruthTable;

std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / ("ftl_library_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

NpnTransform random_transform(int num_vars, std::mt19937_64& rng) {
  NpnTransform t;
  t.num_vars = num_vars;
  std::vector<int> perm(static_cast<std::size_t>(num_vars));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  for (int j = 0; j < num_vars; ++j) {
    t.perm[static_cast<std::size_t>(j)] =
        static_cast<std::uint8_t>(perm[static_cast<std::size_t>(j)]);
  }
  t.input_negations =
      static_cast<std::uint32_t>(rng()) & ((1u << num_vars) - 1);
  t.output_negation = (rng() & 1) != 0;
  return t;
}

TruthTable random_table(int num_vars, std::mt19937_64& rng) {
  const int minterms = 1 << num_vars;
  const std::uint64_t mask =
      minterms == 64 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << minterms) - 1;
  return TruthTable::from_bits(num_vars, rng() & mask);
}

TEST(Npn, ClassCountsMatchTheKnownSequence) {
  // NPN classes of n-variable functions: 1, 2, 4, 14, 222 (abc's Npn4).
  EXPECT_EQ(library::npn_class_representatives(0).size(), 1u);
  EXPECT_EQ(library::npn_class_representatives(1).size(), 2u);
  EXPECT_EQ(library::npn_class_representatives(2).size(), 4u);
  EXPECT_EQ(library::npn_class_representatives(3).size(), 14u);
  EXPECT_EQ(library::npn_class_representatives(4).size(), 222u);
}

TEST(Npn, ApplyMatchesTheTruthTableReference) {
  std::mt19937_64 rng(7);
  for (int num_vars = 1; num_vars <= 6; ++num_vars) {
    for (int trial = 0; trial < 20; ++trial) {
      const TruthTable t = random_table(num_vars, rng);
      const NpnTransform tr = random_transform(num_vars, rng);
      std::vector<int> perm(tr.perm.begin(), tr.perm.begin() + num_vars);
      EXPECT_EQ(library::apply_npn(t, tr),
                t.transformed(perm, tr.input_negations, tr.output_negation));
    }
  }
}

TEST(Npn, InverseUndoesTheTransform) {
  std::mt19937_64 rng(11);
  for (int num_vars = 1; num_vars <= 6; ++num_vars) {
    for (int trial = 0; trial < 30; ++trial) {
      const TruthTable t = random_table(num_vars, rng);
      const NpnTransform tr = random_transform(num_vars, rng);
      EXPECT_EQ(
          library::apply_npn(library::apply_npn(t, tr), library::inverse(tr)),
          t);
    }
  }
}

TEST(Npn, CanonicalizeReturnsTheTransformItApplied) {
  std::mt19937_64 rng(13);
  for (int num_vars = 0; num_vars <= 6; ++num_vars) {
    for (int trial = 0; trial < 20; ++trial) {
      const TruthTable t = random_table(num_vars, rng);
      const library::NpnCanonical canon = library::canonicalize(t);
      EXPECT_EQ(library::apply_npn(t, canon.transform), canon.canonical);
      EXPECT_EQ(library::apply_npn(canon.canonical,
                                   library::inverse(canon.transform)),
                t);
    }
  }
}

TEST(Npn, CanonicalIsInvariantAcrossAll4VarClasses) {
  std::mt19937_64 rng(17);
  for (const TruthTable& rep : library::npn_class_representatives(4)) {
    // The representative is its own canonical form (it is the orbit min).
    EXPECT_EQ(library::canonicalize(rep).canonical, rep);
    for (int trial = 0; trial < 10; ++trial) {
      const NpnTransform tr = random_transform(4, rng);
      const TruthTable moved = library::apply_npn(rep, tr);
      EXPECT_EQ(library::canonicalize(moved).canonical, rep)
          << "class " << rep.to_hex();
    }
  }
}

TEST(Npn, SemiCanonicalIsInvariantFor5And6Vars) {
  std::mt19937_64 rng(19);
  for (const int num_vars : {5, 6}) {
    std::vector<TruthTable> tables;
    for (int i = 0; i < 25; ++i) tables.push_back(random_table(num_vars, rng));
    // Parity maximizes tie branching (every count balanced) — the worst
    // case for the semi-canonical search must stay invariant too.
    tables.push_back(TruthTable::from_function(num_vars, [](std::uint64_t m) {
      return (std::popcount(m) & 1) != 0;
    }));
    for (const TruthTable& t : tables) {
      const TruthTable canonical = library::canonicalize(t).canonical;
      for (int trial = 0; trial < 8; ++trial) {
        const TruthTable moved =
            library::apply_npn(t, random_transform(num_vars, rng));
        EXPECT_EQ(library::canonicalize(moved).canonical, canonical);
      }
    }
  }
}

TEST(Npn, RelabelLatticeTracksTheTableTransform) {
  std::mt19937_64 rng(23);
  for (int trial = 0; trial < 15; ++trial) {
    const TruthTable target = random_table(4, rng);
    const lattice::Lattice lat = lattice::altun_riedel_synthesis(target);
    NpnTransform tr = random_transform(4, rng);
    tr.output_negation = false;  // relabeling cannot express it
    const lattice::Lattice moved = library::relabel_lattice(lat, tr);
    EXPECT_TRUE(lattice::realizes(moved, library::apply_npn(target, tr)));
  }
}

TEST(Npn, KeySeparatesVariableCounts) {
  // Same word, different arity: constant-0 of 3 vs 4 vars must not collide.
  EXPECT_NE(library::npn_key(TruthTable::constant(3, false)),
            library::npn_key(TruthTable::constant(4, false)));
}

TEST(Library, PadLatticePreservesTheFunction) {
  const auto parsed = logic::parse_expression("a b + b c + a c");
  const TruthTable target = parsed.table;
  const lattice::Lattice lat = lattice::altun_riedel_synthesis(target);
  const lattice::Lattice padded =
      library::pad_lattice(lat, lat.rows() + 2, lat.cols() + 3);
  EXPECT_EQ(padded.rows(), lat.rows() + 2);
  EXPECT_EQ(padded.cols(), lat.cols() + 3);
  EXPECT_TRUE(lattice::realizes(padded, target));
}

TEST(Library, StoreRoundTripsThroughDisk) {
  const std::string dir = fresh_dir("roundtrip");
  const TruthTable target = logic::parse_expression("a b + c d").table;
  const library::NpnCanonical canon = library::canonicalize(target);
  const std::uint64_t key = library::npn_key(canon.canonical);

  {
    library::LatticeLibrary lib(dir);
    library::LibraryEntry entry;
    entry.lattice = lattice::altun_riedel_synthesis(canon.canonical);
    entry.engine = "altun";
    entry.seed = 42;
    entry.cost_ms = 1.5;
    EXPECT_TRUE(lib.insert(key, canon.canonical, false, entry));
    EXPECT_EQ(lib.num_classes(), 1u);
    EXPECT_EQ(lib.num_entries(), 1u);
  }

  library::LatticeLibrary reopened(dir);
  EXPECT_EQ(reopened.load_all(), 1u);
  const std::optional<library::LibraryEntry> entry = reopened.find(key, false);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->engine, "altun");
  EXPECT_EQ(entry->seed, 42u);
  EXPECT_TRUE(lattice::realizes(entry->lattice, canon.canonical));
  EXPECT_FALSE(reopened.find(key, true).has_value());
}

TEST(Library, CertifiedBitPersistsAndResetsOnReplacement) {
  const std::string dir = fresh_dir("certified");
  const TruthTable target = TruthTable::variable(2, 0);
  const library::NpnCanonical canon = library::canonicalize(target);
  const std::uint64_t key = library::npn_key(canon.canonical);

  {
    library::LatticeLibrary lib(dir);
    library::LibraryEntry big;
    big.lattice = library::pad_lattice(
        lattice::altun_riedel_synthesis(canon.canonical), 3, 3);
    big.engine = "altun";
    ASSERT_TRUE(lib.insert(key, canon.canonical, false, big));

    // Entries start unstamped; stamping an absent slot is a miss.
    EXPECT_FALSE(lib.find(key, false)->certified);
    EXPECT_FALSE(lib.stamp_certified(key, true, true));
    EXPECT_TRUE(lib.stamp_certified(key, false, true));
    EXPECT_TRUE(lib.find(key, false)->certified);
  }

  // The stamp survives a reopen from disk.
  library::LatticeLibrary reopened(dir);
  reopened.load_all();
  EXPECT_TRUE(reopened.find(key, false)->certified);

  // A strictly smaller replacement is a new, unproven lattice: the bit
  // resets and must be re-earned.
  library::LibraryEntry small;
  small.lattice = lattice::altun_riedel_synthesis(canon.canonical);
  small.engine = "exhaustive";
  ASSERT_TRUE(reopened.insert(key, canon.canonical, false, small));
  EXPECT_FALSE(reopened.find(key, false)->certified);
}

TEST(Library, InsertKeepsTheSmallerLattice) {
  library::LatticeLibrary lib;  // memory-only
  const TruthTable target = TruthTable::variable(2, 0);
  const library::NpnCanonical canon = library::canonicalize(target);
  const std::uint64_t key = library::npn_key(canon.canonical);

  library::LibraryEntry big;
  big.lattice = library::pad_lattice(
      lattice::altun_riedel_synthesis(canon.canonical), 3, 3);
  big.engine = "altun";
  EXPECT_TRUE(lib.insert(key, canon.canonical, false, big));

  library::LibraryEntry small;
  small.lattice = lattice::altun_riedel_synthesis(canon.canonical);
  small.engine = "exhaustive";
  ASSERT_LT(small.lattice.cell_count(), big.lattice.cell_count());
  EXPECT_TRUE(lib.insert(key, canon.canonical, false, small));
  EXPECT_FALSE(lib.insert(key, canon.canonical, false, big));  // worse again

  const auto entry = lib.find(key, false);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->engine, "exhaustive");
  EXPECT_EQ(lib.counters().populates.get(), 1u);
  EXPECT_EQ(lib.counters().improvements.get(), 1u);
}

TEST(Library, SynthesizeMissesThenHitsViaTheLibrary) {
  library::LatticeLibrary lib;
  const auto maj = logic::parse_expression("a b + b c + a c");
  const TruthTable& target = maj.table;

  library::SynthesisRequest request;
  request.var_names = maj.var_names;
  const library::SynthesisResult cold =
      library::synthesize(target, request, &lib);
  ASSERT_TRUE(cold.found);
  EXPECT_FALSE(cold.from_library);
  EXPECT_EQ(cold.engine, "altun");
  EXPECT_TRUE(cold.populated);
  EXPECT_TRUE(lattice::realizes(cold.lattice, target));

  // NPN relabelings of the target answer from the library. The first
  // request whose transform lands on the complement phase may still miss
  // (majority is self-complementary, and only the direct slot is filled so
  // far) — but it populates that slot, so the second pass over the same
  // functions must be hits across the board.
  std::mt19937_64 rng(29);
  std::vector<TruthTable> moved_list;
  for (int trial = 0; trial < 12; ++trial) {
    moved_list.push_back(library::apply_npn(target, random_transform(3, rng)));
  }
  std::uint64_t first_pass_hits = 0;
  for (const TruthTable& moved : moved_list) {
    const library::SynthesisResult result =
        library::synthesize(moved, {}, &lib);
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(lattice::realizes(result.lattice, moved));
    if (result.from_library) ++first_pass_hits;
  }
  EXPECT_GE(first_pass_hits, 11u);  // at most one complement-slot cold miss
  for (const TruthTable& moved : moved_list) {
    const library::SynthesisResult warm =
        library::synthesize(moved, {}, &lib);
    ASSERT_TRUE(warm.found);
    EXPECT_TRUE(warm.from_library);
    EXPECT_EQ(warm.engine, "library");
    EXPECT_TRUE(lattice::realizes(warm.lattice, moved));
  }
  const library::LibraryCounters& counters = lib.counters();
  EXPECT_EQ(counters.class_hits.get(), first_pass_hits + 12u);
  EXPECT_EQ(counters.unapplies.get(),
            counters.class_hits.get() + counters.verify_rejects.get());
  EXPECT_EQ(counters.verify_rejects.get(), 0u);
}

TEST(Library, LookupHonorsDimensionBoundsByPadding) {
  library::LatticeLibrary lib;
  const TruthTable target =
      logic::parse_expression("a b + b c + a c").table;
  library::SynthesisRequest request;
  (void)library::synthesize(target, request, &lib);  // populate (3x3 altun)

  const auto fits = library::lookup_only(lib, target, {}, 4, 5);
  ASSERT_TRUE(fits.has_value());
  EXPECT_EQ(fits->rows(), 4);
  EXPECT_EQ(fits->cols(), 5);
  EXPECT_TRUE(lattice::realizes(*fits, target));

  // A 2x2 request cannot be served by the stored 3x3 lattice.
  EXPECT_FALSE(library::lookup_only(lib, target, {}, 2, 2).has_value());
}

TEST(Library, PrecomputeCoversEvery4VarRequest) {
  library::LatticeLibrary lib;
  library::PrecomputeOptions options;
  options.curated = false;  // 4-var-and-below classes only
  const library::PrecomputeReport report = library::precompute(lib, options);
  // Both phases of every class of 0..4 vars: 2 * (1 + 2 + 4 + 14 + 222).
  EXPECT_EQ(report.targets, 486u);
  EXPECT_EQ(report.populated, 486u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(lib.num_classes(), 243u);
  EXPECT_EQ(lib.num_entries(), 486u);

  // Every 4-var function — canonical or not — must now answer from the
  // library without touching an engine.
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const TruthTable target = random_table(4, rng);
    const library::SynthesisResult result =
        library::synthesize(target, {}, &lib);
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(result.from_library) << target.to_hex();
    EXPECT_TRUE(lattice::realizes(result.lattice, target));
  }
  EXPECT_EQ(lib.counters().verify_rejects.get(), 0u);
  EXPECT_EQ(lib.counters().misses.get(), 0u);
}

TEST(Library, CuratedTargetsAreCanonicalAndDeduplicated) {
  const std::vector<TruthTable> targets = library::curated_targets(1);
  EXPECT_GE(targets.size(), 10u);
  std::vector<std::uint64_t> keys;
  for (const TruthTable& t : targets) {
    EXPECT_TRUE(t.num_vars() == 5 || t.num_vars() == 6);
    EXPECT_EQ(library::canonicalize(t).canonical, t);
    keys.push_back(library::npn_key(t));
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

// SAT encodes at most 64 cells, so the certify audit walks smaller shapes
// only up to 64 and never stamps an entry of 66 or more cells. The stock
// library holds such entries (5-variable parity is 16x16); both outcomes
// they can reach must finish with exit 0.
TEST(LibraryCli, CertifyAuditsEntriesAboveTheSatCellLimit) {
  const std::string dir = fresh_dir("certify_large");
  {
    library::LatticeLibrary lib(dir);
    // 256 cells; one conflict per shape settles too few shapes: unproven.
    const TruthTable parity = TruthTable::from_function(
        5, [](std::uint64_t m) { return (std::popcount(m) & 1) != 0; });
    const library::NpnCanonical canon = library::canonicalize(parity);
    library::LibraryEntry entry;
    entry.lattice = lattice::altun_riedel_synthesis(canon.canonical);
    ASSERT_EQ(entry.lattice.cell_count(), 256);
    entry.engine = "altun";
    ASSERT_TRUE(lib.insert(library::npn_key(canon.canonical), canon.canonical,
                           false, entry));
    // 81 cells for a function a 1x2 lattice realizes: improvable.
    const TruthTable conj = logic::parse_expression("a b").table;
    const library::NpnCanonical small = library::canonicalize(conj);
    entry.lattice = library::pad_lattice(
        lattice::altun_riedel_synthesis(small.canonical), 9, 9);
    ASSERT_TRUE(lib.insert(library::npn_key(small.canonical), small.canonical,
                           false, entry));
  }

  const std::string command = std::string(FTL_LATTICE_LIB_BIN) + " verify " +
                              dir + " --certify --conflicts 1";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status)) << out;
  EXPECT_EQ(WEXITSTATUS(status), 0) << out;
  EXPECT_NE(out.find("certified 0 of 2 audited (1 unproven by budget, 1 "
                     "improvable, 0 proof failures)"),
            std::string::npos)
      << out;

  // Nothing was stamped.
  library::LatticeLibrary reopened(dir);
  reopened.load_all();
  for (const auto& [key, cls] : reopened.snapshot()) {
    EXPECT_FALSE(cls.direct->certified);
  }
}

}  // namespace
