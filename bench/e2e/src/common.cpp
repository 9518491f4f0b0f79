#include "common.hpp"

#include <filesystem>
#include <limits>
#include <system_error>

#include "ftl/util/error.hpp"

namespace bench_e2e {

namespace {

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state_(mix(seed ^ mix(stream + 0x9e3779b97f4a7c15ULL))) {}

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return mix(state_);
}

std::uint64_t Rng::below(std::uint64_t n) {
  // Rejection sampling keeps the draw exactly uniform.
  const std::uint64_t limit = std::numeric_limits<std::uint64_t>::max() -
                              std::numeric_limits<std::uint64_t>::max() % n;
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return v % n;
}

int Rng::range(int lo, int hi) {
  return lo + static_cast<int>(below(static_cast<std::uint64_t>(hi - lo) + 1));
}

bool Rng::chance(double p) {
  return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void Outcome::add(std::string metric, double value, std::string unit,
                  std::size_t n) {
  rows.push_back(Row{std::move(metric), value, std::move(unit), n});
}

void Outcome::fail(std::string message) {
  ++failed;
  if (failures.size() < 20) failures.push_back(std::move(message));
}

const Row* Outcome::find(std::string_view metric) const {
  for (const Row& row : rows) {
    if (row.metric == metric) return &row;
  }
  return nullptr;
}

void make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) throw ftl::Error("cannot create " + path + ": " + ec.message());
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace bench_e2e
