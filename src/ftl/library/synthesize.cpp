#include "ftl/library/synthesize.hpp"

#include <chrono>
#include <utility>

#include "ftl/lattice/function.hpp"
#include "ftl/util/error.hpp"

namespace ftl::library {
namespace {

/// Shared hit path: find the class slot matching the transform's output
/// phase, un-apply the transform onto the stored lattice, pad to the
/// requested shape, and bitslice-verify. Any failure along the way counts
/// (and behaves) as a miss.
std::optional<lattice::Lattice> library_lookup(
    LatticeLibrary& lib, const logic::TruthTable& target,
    const NpnCanonical& canon, std::uint64_t key, int rows, int cols,
    const std::vector<std::string>& var_names) {
  LibraryCounters& counters = lib.counters();
  counters.lookups.add();
  const bool phase = canon.transform.output_negation;
  const std::optional<LibraryEntry> entry = lib.find(key, phase);
  if (!entry ||
      (rows > 0 && cols > 0 &&
       (entry->lattice.rows() > rows || entry->lattice.cols() > cols))) {
    counters.misses.add();
    return std::nullopt;
  }
  const NpnTransform un = inverse(canon.transform).without_output_negation();
  lattice::Lattice lat = relabel_lattice(entry->lattice, un, var_names);
  counters.unapplies.add();
  if (phase) counters.output_inversions.add();
  if (rows > 0 && cols > 0 && (lat.rows() != rows || lat.cols() != cols)) {
    lat = pad_lattice(lat, rows, cols);
  }
  if (!lattice::realizes(lat, target)) {
    counters.verify_rejects.add();
    counters.misses.add();
    return std::nullopt;
  }
  counters.class_hits.add();
  return lat;
}

}  // namespace

SynthesisResult synthesize(const logic::TruthTable& target,
                           const SynthesisRequest& request,
                           LatticeLibrary* lib) {
  SynthesisResult out;
  const bool use_library =
      lib != nullptr && request.use_library && target.num_vars() <= 6;
  std::optional<NpnCanonical> canon;
  std::uint64_t key = 0;
  if (use_library) {
    canon = canonicalize(target);
    key = npn_key(canon->canonical);
    out.npn_key = key;
    if (std::optional<lattice::Lattice> hit =
            library_lookup(*lib, target, *canon, key, request.rows,
                           request.cols, request.var_names)) {
      out.lattice = std::move(*hit);
      out.found = true;
      out.from_library = true;
      out.engine = "library";
      return out;
    }
  }

  const auto start = std::chrono::steady_clock::now();
  std::optional<lattice::Lattice> found;
  std::uint64_t seed = 0;
  switch (request.engine) {
    case SynthesisRequest::Engine::kAltun:
      found = lattice::altun_riedel_synthesis(target, request.var_names);
      out.engine = "altun";
      break;
    case SynthesisRequest::Engine::kSat: {
      FTL_EXPECTS(request.rows > 0 && request.cols > 0);
      lattice::SatSynthesisResult sat = lattice::synth_sat(
          target, request.rows, request.cols, request.sat, request.var_names);
      out.proven_infeasible = sat.proven_infeasible;
      out.budget_exhausted = sat.budget_exhausted;
      found = sat.lattice;
      out.sat = std::move(sat);
      out.engine = "sat";
      seed = request.sat.seed;
      break;
    }
  }
  const double cost_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  if (!found) return out;
  out.lattice = std::move(*found);
  out.found = true;

  if (use_library && request.populate) {
    // Relabel the engine result into canonical variables (default names —
    // the stored lattice is class-level, not request-level) and offer it to
    // the slot matching the transform's output phase.
    const bool phase = canon->transform.output_negation;
    lattice::Lattice canonical_lat = relabel_lattice(
        out.lattice, canon->transform.without_output_negation());
    const logic::TruthTable want =
        phase ? ~canon->canonical : canon->canonical;
    if (lattice::realizes(canonical_lat, want)) {
      LibraryEntry entry;
      entry.lattice = std::move(canonical_lat);
      entry.engine = out.engine;
      entry.seed = seed;
      entry.cost_ms = cost_ms;
      out.populated =
          lib->insert(key, canon->canonical, phase, std::move(entry));
    }
  }
  return out;
}

std::optional<lattice::Lattice> lookup_only(LatticeLibrary& lib,
                                            const logic::TruthTable& target,
                                            std::vector<std::string> var_names,
                                            int rows, int cols) {
  if (target.num_vars() > 6) return std::nullopt;
  const NpnCanonical canon = canonicalize(target);
  return library_lookup(lib, target, canon, npn_key(canon.canonical), rows,
                        cols, var_names);
}

lattice::Lattice pad_lattice(const lattice::Lattice& lat, int rows,
                             int cols) {
  FTL_EXPECTS(rows >= lat.rows() && cols >= lat.cols());
  if (rows == lat.rows() && cols == lat.cols()) return lat;
  lattice::Lattice out(rows, cols, lat.num_vars(), lat.var_names());
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (r >= lat.rows()) {
        out.set(r, c, lattice::CellValue::one());
      } else if (c >= lat.cols()) {
        out.set(r, c, lattice::CellValue::zero());
      } else {
        out.set(r, c, lat.at(r, c));
      }
    }
  }
  return out;
}

}  // namespace ftl::library
