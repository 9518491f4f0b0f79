#pragma once
// Monotonic process counters, grouped into the named sections the serve
// `stats` op reports. A module declares each counter once, with its key,
// and bumps it through the reference declare() returned: one relaxed
// fetch_add, no lookup or lock, so counters can sit on the hottest paths.

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace ftl::util {

/// One monotonic counter (relaxed atomic: individually exact, unordered
/// against every other counter).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t get() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// One reported counter: its key and its value after the divisor.
struct CounterValue {
  std::string key;
  std::uint64_t value = 0;
};

/// A named section of counters in declaration order. Declare every counter
/// before the set is shared; add, snapshot and reset are then safe from any
/// thread.
class CounterSet {
 public:
  explicit CounterSet(std::string name);
  CounterSet(const CounterSet&) = delete;
  CounterSet& operator=(const CounterSet&) = delete;

  /// Appends a counter reported as `key`. Snapshots report its value
  /// divided by `divisor` (integer division), so a sum kept in ns can be
  /// reported in µs. The reference stays valid for the set's lifetime.
  Counter& declare(std::string key, std::uint64_t divisor = 1);

  const std::string& name() const { return name_; }

  /// Every counter's key and reported value, in declaration order.
  std::vector<CounterValue> snapshot() const;

  /// Zeroes every counter.
  void reset();

 private:
  struct Entry {
    Entry(std::string k, std::uint64_t d) : key(std::move(k)), divisor(d) {}
    std::string key;
    std::uint64_t divisor;
    Counter counter;
  };
  std::string name_;
  std::deque<Entry> entries_;  ///< a deque never relocates its elements
};

}  // namespace ftl::util
