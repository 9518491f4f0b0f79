#include "ftl/lattice/synthesis.hpp"

#include <random>
#include <string>

#include "ftl/lattice/function.hpp"
#include "ftl/logic/isop.hpp"
#include "ftl/util/error.hpp"

namespace ftl::lattice {

std::vector<CellValue> search_candidate_values(int num_vars,
                                               bool allow_constants) {
  std::vector<CellValue> out;
  for (int v = 0; v < num_vars; ++v) {
    out.push_back(CellValue::of(v, true));
    out.push_back(CellValue::of(v, false));
  }
  if (allow_constants) {
    out.push_back(CellValue::one());
    out.push_back(CellValue::zero());
  }
  return out;
}

Lattice altun_riedel_synthesis(const logic::TruthTable& target,
                               std::vector<std::string> var_names) {
  const int nv = target.num_vars();
  if (target.is_zero() || target.is_one()) {
    Lattice lat(1, 1, nv, std::move(var_names));
    lat.set(0, 0, target.is_one() ? CellValue::one() : CellValue::zero());
    return lat;
  }

  const logic::Sop products = logic::isop(target);
  const logic::Sop duals = logic::isop_of_dual(target);
  FTL_ENSURES(!products.empty() && !duals.empty());

  const int rows = duals.size();
  const int cols = products.size();
  Lattice lat(rows, cols, nv, std::move(var_names));
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      const auto shared =
          duals.cubes()[static_cast<std::size_t>(i)].shared_literals(
              products.cubes()[static_cast<std::size_t>(j)]);
      if (shared.empty()) {
        // Cannot happen for implicants of f and f^D (they always share a
        // literal); reaching this means the ISOPs are inconsistent.
        throw ftl::Error("altun_riedel_synthesis: product/dual pair shares no literal");
      }
      lat.set(i, j, CellValue{CellValue::Kind::kLiteral, shared.front()});
    }
  }
  FTL_ENSURES(realizes(lat, target));
  return lat;
}

Lattice altun_riedel_synthesis(logic::BddManager& manager,
                               logic::BddRef target,
                               std::vector<std::string> var_names) {
  const int nv = manager.num_vars();
  if (manager.is_zero(target) || manager.is_one(target)) {
    Lattice lat(1, 1, nv, std::move(var_names));
    lat.set(0, 0, manager.is_one(target) ? CellValue::one() : CellValue::zero());
    return lat;
  }

  const logic::Sop products = manager.isop(target);
  const logic::Sop duals = manager.isop(manager.dual(target));
  FTL_ENSURES(!products.empty() && !duals.empty());

  const int rows = duals.size();
  const int cols = products.size();
  Lattice lat(rows, cols, nv, std::move(var_names));
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      const auto shared =
          duals.cubes()[static_cast<std::size_t>(i)].shared_literals(
              products.cubes()[static_cast<std::size_t>(j)]);
      if (shared.empty()) {
        throw ftl::Error("altun_riedel_synthesis(bdd): product/dual pair shares no literal");
      }
      lat.set(i, j, CellValue{CellValue::Kind::kLiteral, shared.front()});
    }
  }

  // Verification: exhaustive while affordable, dense sampling beyond.
  if (nv <= 20) {
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << nv); ++m) {
      FTL_ENSURES(lat.evaluate(m) == manager.evaluate(target, m));
    }
  } else {
    std::mt19937_64 rng(0x4c415454u);  // fixed seed: deterministic check
    for (int trial = 0; trial < 4096; ++trial) {
      const std::uint64_t m =
          rng() & ((nv >= 64) ? ~std::uint64_t{0}
                              : ((std::uint64_t{1} << nv) - 1));
      FTL_ENSURES(lat.evaluate(m) == manager.evaluate(target, m));
    }
  }
  return lat;
}

}  // namespace ftl::lattice
