// Counter sets: declaration-order snapshots, divided keys, reset, and exact
// sums under concurrent adds.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "ftl/util/counters.hpp"
#include "ftl/util/error.hpp"

namespace {

using ftl::util::Counter;
using ftl::util::CounterSet;
using ftl::util::CounterValue;

std::vector<std::string> keys_of(const std::vector<CounterValue>& snapshot) {
  std::vector<std::string> keys;
  for (const CounterValue& c : snapshot) keys.push_back(c.key);
  return keys;
}

TEST(Counters, SnapshotComesBackInDeclarationOrder) {
  CounterSet set("demo_core");
  Counter& zeta = set.declare("zeta");
  Counter& alpha = set.declare("alpha");
  Counter& mid = set.declare("mid");
  EXPECT_EQ(set.name(), "demo_core");
  // Every key shows, at zero, before its first use.
  const std::vector<CounterValue> fresh = set.snapshot();
  EXPECT_EQ(keys_of(fresh), (std::vector<std::string>{"zeta", "alpha", "mid"}));
  for (const CounterValue& c : fresh) EXPECT_EQ(c.value, 0u) << c.key;

  zeta.add();
  alpha.add(5);
  mid.add(2);
  mid.add();
  const std::vector<CounterValue> snap = set.snapshot();
  EXPECT_EQ(keys_of(snap), (std::vector<std::string>{"zeta", "alpha", "mid"}));
  EXPECT_EQ(snap[0].value, 1u);
  EXPECT_EQ(snap[1].value, 5u);
  EXPECT_EQ(snap[2].value, 3u);
  EXPECT_EQ(mid.get(), 3u);
}

TEST(Counters, DivisorTruncatesLikeProofCheckMicroseconds) {
  CounterSet set("sat_core");
  Counter& ns = set.declare("proof_check_us", 1000);
  ns.add(999);
  EXPECT_EQ(set.snapshot()[0].value, 0u);  // 999 ns is 0 µs, not 1
  ns.add(1);
  EXPECT_EQ(set.snapshot()[0].value, 1u);
  ns.add(1998);
  EXPECT_EQ(set.snapshot()[0].value, 2u);  // 2998 ns
  EXPECT_EQ(ns.get(), 2998u);              // the counter keeps nanoseconds
  EXPECT_THROW(set.declare("bad", 0), ftl::ContractViolation);
}

TEST(Counters, ResetZeroesEveryCounter) {
  CounterSet set("demo_core");
  Counter& a = set.declare("a");
  Counter& b = set.declare("b", 10);
  a.add(7);
  b.add(70);
  set.reset();
  for (const CounterValue& c : set.snapshot()) EXPECT_EQ(c.value, 0u) << c.key;
  EXPECT_EQ(a.get(), 0u);
  EXPECT_EQ(b.get(), 0u);
  a.add();
  EXPECT_EQ(a.get(), 1u);
}

TEST(Counters, ConcurrentAddsSumExactly) {
  CounterSet set("demo_core");
  Counter& hits = set.declare("hits");
  Counter& bytes = set.declare("bytes");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kAdds = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kAdds; ++i) {
        hits.add();
        bytes.add(3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hits.get(), kThreads * kAdds);
  EXPECT_EQ(bytes.get(), 3 * kThreads * kAdds);
}

}  // namespace
