#include "ftl/util/counters.hpp"

#include "ftl/util/error.hpp"

namespace ftl::util {

CounterSet::CounterSet(std::string name) : name_(std::move(name)) {}

Counter& CounterSet::declare(std::string key, std::uint64_t divisor) {
  FTL_EXPECTS(divisor > 0);
  return entries_.emplace_back(std::move(key), divisor).counter;
}

std::vector<CounterValue> CounterSet::snapshot() const {
  std::vector<CounterValue> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    out.push_back({e.key, e.counter.get() / e.divisor});
  }
  return out;
}

void CounterSet::reset() {
  for (Entry& e : entries_) e.counter.reset();
}

}  // namespace ftl::util
