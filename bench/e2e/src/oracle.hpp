#pragma once
// Correctness oracles for serve replies. They run after a window, never
// inside it. Lattice functions are recomputed with the scalar
// Lattice::evaluate loop (one connectivity search per assignment), not the
// bitsliced kernel the server uses, and targets come from the generator's
// own cubes.

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "gen.hpp"

namespace bench_e2e {

/// Checks one reply; returns an empty string when it is correct, otherwise
/// what is wrong with it.
std::string check_reply(const Request& request, std::string_view reply);

/// Runs check(i) for i in [0, n) on up to four threads and returns the
/// indices' failure messages in index order (empty strings dropped).
std::vector<std::pair<std::size_t, std::string>> check_all(
    std::size_t n, const std::function<std::string(std::size_t)>& check);

}  // namespace bench_e2e
