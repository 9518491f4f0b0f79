#pragma once
// Shared pieces of bench_e2e: the clock, seeded random streams,
// sample statistics, and the Outcome every workload returns — its metrics
// as rows of ROADMAP's result schema plus its attempted/failed counts.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bench_e2e {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64 stream. The <random> distributions are implementation-
/// defined; this is not, so one seed names the same inputs on every host.
class Rng {
 public:
  /// Stream `stream` of seed `seed`: distinct streams never share state.
  Rng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n);  ///< uniform in [0, n), n > 0
  int range(int lo, int hi);             ///< uniform in [lo, hi]
  bool chance(double p);                 ///< true with probability p

 private:
  std::uint64_t state_;
};

/// FNV-1a over bytes (line de-duplication).
std::uint64_t fnv1a(std::string_view bytes);

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (NaN for an empty sample). Reorders `values`.
template <typename T>
double quantile_inplace(std::vector<T>& values, double q) {
  if (values.empty()) return std::nan("");
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double a = static_cast<double>(*lo_it);
  if (lo + 1 >= values.size()) return a;
  const double b = static_cast<double>(*std::min_element(lo_it + 1, values.end()));
  return a + (pos - static_cast<double>(lo)) * (b - a);
}

template <typename T>
double quantile(std::vector<T> values, double q) {
  return quantile_inplace(values, q);
}

template <typename T>
double median(std::vector<T> values) {
  return quantile_inplace(values, 0.5);
}

/// One reported number (ROADMAP's row schema; the bound is filled in from
/// BENCHMARK.json when the report is written).
struct Row {
  std::string metric;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  ///< samples the value summarizes
};

/// What one workload run measured and checked.
struct Outcome {
  std::string workload;
  std::vector<Row> rows;
  std::uint64_t attempted = 0;  ///< requests, or jobs, attempted
  std::uint64_t failed = 0;     ///< errors, transport failures, failed checks
  std::vector<std::string> failures;  ///< the first few failure messages

  void add(std::string metric, double value, std::string unit, std::size_t n);
  /// Counts one failure; keeps its message when fewer than 20 are kept.
  void fail(std::string message);
  const Row* find(std::string_view metric) const;
};

/// Parsed command line (see print_usage in main.cpp).
struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = "bench_e2e_work";
  std::string spans_path;  ///< where a --trace run writes its spans
};

/// The programs under test and the golden figure artifacts, as built and
/// checked out beside this program.
inline constexpr const char* kServeBin = FTL_BENCH_SERVE_BIN;
inline constexpr const char* kRunBin = FTL_BENCH_RUN_BIN;
inline constexpr const char* kGoldenDir = FTL_BENCH_GOLDEN_DIR;

/// Creates `path` (and parents); throws ftl::Error on failure.
void make_dirs(const std::string& path);
/// Removes `path` recursively when it exists.
void remove_tree(const std::string& path);

}  // namespace bench_e2e
