// Thread pool: full index coverage, exception propagation, nested calls
// (shared with idle workers of the same pool, inline from another pool's
// task), the serial escape hatch, and the per-job thread cap.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ftl/util/thread_pool.hpp"

namespace {

using namespace ftl;

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  const std::size_t count = 1000;
  std::vector<std::atomic<int>> hits(count);
  util::parallel_for(count, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ResultSlotsAreScheduleIndependent) {
  const std::size_t count = 257;
  std::vector<double> out(count, 0.0);
  util::parallel_for(count, [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 3.0 + 1.0;
  });
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 3.0 + 1.0);
  }
}

TEST(ThreadPool, SerialWhenMaxThreadsIsOne) {
  // max_threads = 1 must run inline on the caller, in index order.
  std::vector<std::size_t> order;
  util::parallel_for(
      10, [&](std::size_t i) { order.push_back(i); }, 1);
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

/// Peak number of fn calls running at once over `count` 1 ms tasks.
int peak_concurrency(
    const std::function<void(std::size_t,
                             const std::function<void(std::size_t)>&)>& run,
    std::size_t count) {
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  run(count, [&](std::size_t) {
    const int now = ++running;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    --running;
  });
  return peak.load();
}

TEST(ThreadPool, MaxThreadsCapsConcurrency) {
  // A cap above one still bounds the job: the caller plus at most
  // max_threads - 1 workers, however large the pool.
  util::ThreadPool pool(4);
  const int pooled = peak_concurrency(
      [&](std::size_t n, const std::function<void(std::size_t)>& fn) {
        pool.parallel_for(n, fn, 2);
      },
      64);
  EXPECT_GE(pooled, 1);
  EXPECT_LE(pooled, 2);
  const int global = peak_concurrency(
      [](std::size_t n, const std::function<void(std::size_t)>& fn) {
        util::parallel_for(n, fn, 2);
      },
      64);
  EXPECT_GE(global, 1);
  EXPECT_LE(global, 2);
  // The cap holds inside a pool task too: the task's thread plus at most
  // one helper.
  const int nested = pool.submit([&] {
                           return peak_concurrency(
                               [&](std::size_t n,
                                   const std::function<void(std::size_t)>& fn) {
                                 pool.parallel_for(n, fn, 2);
                               },
                               64);
                         })
                         .get();
  EXPECT_GE(nested, 1);
  EXPECT_LE(nested, 2);
}

TEST(ThreadPool, PropagatesFirstException) {
  EXPECT_THROW(
      util::parallel_for(64,
                         [&](std::size_t i) {
                           if (i == 13) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> total{0};
  util::parallel_for(8, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 8);
}

TEST(ThreadPool, NestedCallsRunInline) {
  // A loop nested in a loop of the same pool must not deadlock on the
  // workers the outer loop occupies. (The name is historical: the inner
  // loop is shared with idle workers now, and the caller runs whatever
  // nobody claimed; this checks coverage.)
  std::vector<std::atomic<int>> hits(64);
  util::parallel_for(8, [&](std::size_t outer) {
    util::parallel_for(8, [&](std::size_t inner) {
      ++hits[outer * 8 + inner];
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

/// Counts this thread in, then waits (at most 5 s) until `want` threads
/// have; true when they all arrived in time.
bool rendezvous(std::atomic<int>& arrived, int want) {
  ++arrived;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (arrived.load() < want) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPool, NestedLoopInAPoolTaskUsesIdleWorkers) {
  // A submitted task's own loop is shared with the pool's idle worker: the
  // two indices run at once, each waiting for the other to arrive.
  util::ThreadPool pool(3);
  std::atomic<int> arrived{0};
  std::atomic<int> met{0};
  pool.submit([&] {
        pool.parallel_for(2, [&](std::size_t) {
          if (rendezvous(arrived, 2)) ++met;
        });
      })
      .get();
  EXPECT_EQ(met.load(), 2);
}

TEST(ThreadPool, NestedLoopFromAnotherPoolsTaskRunsInline) {
  // A task of pool A calling pool B's loop runs it on the calling thread,
  // in index order: serve's request workers rely on this when they call
  // the global pool.
  util::ThreadPool a(2);
  util::ThreadPool b(4);
  std::mutex m;
  std::vector<std::size_t> order;
  std::vector<std::thread::id> threads;
  const std::thread::id caller =
      a.submit([&] {
         b.parallel_for(16, [&](std::size_t i) {
           std::lock_guard<std::mutex> lock(m);
           order.push_back(i);
           threads.push_back(std::this_thread::get_id());
         });
         return std::this_thread::get_id();
       }).get();
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(threads[i], caller);
  }
}

TEST(ThreadPool, NestedLoopsInEveryWorkerComplete) {
  // Every worker holds a task whose loop nests a second loop, so no worker
  // is idle to take the queued helpers: each caller must run its unclaimed
  // indices itself. A deadlock shows as a future that never becomes ready;
  // the pool and the state its tasks use are then leaked rather than
  // joined and freed, so the test fails instead of hanging.
  struct State {
    std::vector<std::atomic<int>> hits = std::vector<std::atomic<int>>(256);
    std::atomic<int> arrived{0};
  };
  const auto state = std::make_shared<State>();
  auto pool = std::make_unique<util::ThreadPool>(4);  // 3 workers
  util::ThreadPool* const p = pool.get();
  std::vector<std::future<void>> futures;
  for (std::size_t t = 0; t < 4; ++t) {
    futures.push_back(p->submit([state, p, t] {
      if (t < 3) rendezvous(state->arrived, 3);  // occupy all three workers
      p->parallel_for(8, [&](std::size_t outer) {
        p->parallel_for(8, [&](std::size_t inner) {
          ++state->hits[t * 64 + outer * 8 + inner];
        });
      });
    }));
  }
  for (std::future<void>& f : futures) {
    if (f.wait_for(std::chrono::seconds(20)) != std::future_status::ready) {
      pool.release();
      FAIL() << "nested loops deadlocked";
    }
    f.get();
  }
  for (std::size_t i = 0; i < state->hits.size(); ++i) {
    EXPECT_EQ(state->hits[i].load(), 1) << "slot " << i;
  }
}

TEST(ThreadPool, ConcurrentTopLevelCallersBothFinish) {
  // Two threads call one pool's loop at once. Each loop's first index
  // waits for the other loop's, so the calls must overlap, not take turns.
  util::ThreadPool pool(3);
  std::atomic<int> arrived{0};
  std::atomic<int> met{0};
  const auto call = [&] {
    pool.parallel_for(4, [&](std::size_t i) {
      if (i == 0 && rendezvous(arrived, 2)) ++met;
    });
  };
  std::thread first(call);
  std::thread second(call);
  first.join();
  second.join();
  EXPECT_EQ(met.load(), 2);
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  bool touched = false;
  util::parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolSubmit, ReturnsResultThroughFuture) {
  util::ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolSubmit, ManyTasksAllComplete) {
  util::ThreadPool pool(4);
  std::vector<std::future<std::size_t>> futures;
  for (std::size_t i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolSubmit, ExceptionIsCapturedInFuture) {
  util::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("task boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool must still be usable afterwards.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolSubmit, NestedSubmitDoesNotDeadlock) {
  // A task that submits and waits on the same pool must not deadlock even
  // when every worker is busy: the nested submit runs inline.
  util::ThreadPool pool(2);
  std::vector<std::future<int>> outer;
  for (int i = 0; i < 8; ++i) {
    outer.push_back(pool.submit([&pool, i] {
      auto inner = pool.submit([i] { return i * 10; });
      return inner.get() + 1;
    }));
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(outer[static_cast<std::size_t>(i)].get(), i * 10 + 1);
  }
}

TEST(ThreadPoolSubmit, NestedParallelForInsideSubmitRunsInline) {
  // A task of `pool` calling the global pool's loop: another pool's task,
  // so the loop runs inline on the task's thread.
  util::ThreadPool pool(2);
  auto f = pool.submit([] {
    std::atomic<int> total{0};
    util::parallel_for(16, [&](std::size_t) { ++total; });
    return total.load();
  });
  EXPECT_EQ(f.get(), 16);
}

TEST(ThreadPoolSubmit, WorkerlessPoolRunsInline) {
  // threads = 1 means "the caller participates": no dedicated workers, so
  // submit degrades to inline execution with an already-ready future.
  util::ThreadPool pool(1);
  auto f = pool.submit([] { return std::string("inline"); });
  EXPECT_EQ(f.get(), "inline");
}

TEST(ThreadPoolSubmit, GlobalPoolAcceptsSubmit) {
  auto f = util::ThreadPool::global().submit([] { return 3.5; });
  EXPECT_DOUBLE_EQ(f.get(), 3.5);
}

TEST(ThreadPoolCounters, IdlePoolReportsZero) {
  util::ThreadPool pool(3);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.active_tasks(), 0u);
}

TEST(ThreadPoolCounters, QueueDepthAndActiveTasksTrackSubmits) {
  // 2 dedicated workers: block both behind a gate, then stack more tasks so
  // the backlog is observable through queue_depth().
  util::ThreadPool pool(3);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::atomic<int> started{0};

  std::vector<std::future<void>> futures;
  for (int i = 0; i < 2; ++i) {
    futures.push_back(pool.submit([&, open] {
      ++started;
      open.wait();
    }));
  }
  // Wait until both workers are inside a task.
  while (started.load() < 2) std::this_thread::yield();
  EXPECT_EQ(pool.active_tasks(), 2u);

  for (int i = 0; i < 4; ++i) {
    futures.push_back(pool.submit([&, open] { open.wait(); }));
  }
  EXPECT_EQ(pool.queue_depth(), 4u);

  gate.set_value();
  for (std::future<void>& f : futures) f.get();
  // Workers may still be between task() and the counter decrement for an
  // instant after the future resolves; settle before asserting zero.
  while (pool.active_tasks() != 0) std::this_thread::yield();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolCounters, InlineSubmitCountsAsActiveDuringExecution) {
  util::ThreadPool pool(1);  // workerless: submit runs inline
  std::size_t seen = 0;
  pool.submit([&] { seen = pool.active_tasks(); }).get();
  EXPECT_EQ(seen, 1u);
  EXPECT_EQ(pool.active_tasks(), 0u);
}

}  // namespace
