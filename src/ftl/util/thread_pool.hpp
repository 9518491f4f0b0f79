#pragma once
// Small fixed-size thread pool for the embarrassingly parallel outer loops:
// terminal-role bias cases, per-device I-V sweeps, and Monte-Carlo
// variability trials. Work is handed out two ways, through one task queue:
//  - parallel_for: an index range; every index writes its own result slot,
//    so results are bit-identical to a serial run regardless of scheduling
//    order.
//  - submit: a single task with a future, used by the jobs::run_graph
//    scheduler to fan independent DAG nodes across the workers. A job's
//    own parallel_for loops are then shared with the workers it leaves idle.

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <type_traits>
#include <utility>

namespace ftl::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 picks the hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (>= 1; the calling thread also participates in jobs).
  std::size_t size() const;

  /// Tasks queued and not yet picked up by a worker: submit() tasks, plus
  /// the helpers of parallel_for calls made on this pool. This is the
  /// admission backlog a service built on the pool reports (and bounds).
  std::size_t queue_depth() const;

  /// Tasks currently executing (inline submit() runs included).
  std::size_t active_tasks() const;

  /// Runs fn(i) for every i in [0, count) and blocks until all complete.
  /// The caller claims indices alongside up to `max_threads` - 1 helper
  /// tasks queued for idle workers (0 = no cap; 1 = serial on the caller,
  /// in index order), and then waits only for indices other threads have
  /// already claimed. So a call from inside a task of this pool is shared
  /// with its idle workers and cannot deadlock; a call from a task of
  /// another pool runs inline (serially). Every index runs; the first
  /// exception thrown by any of them is rethrown here once all have
  /// finished.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t max_threads = 0);

  /// Schedules `fn` to run on a pool worker and returns a future for its
  /// result. Exceptions thrown by the task are captured in the future. A
  /// submit from inside a pool task runs inline before returning (the
  /// future is already ready), so a task may submit-and-wait without
  /// deadlocking the pool; the same applies when the pool has no workers.
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// Process-wide pool, sized from FTL_THREADS (when set and positive) or
  /// the hardware concurrency.
  static ThreadPool& global();

 private:
  /// Queues a type-erased task (or runs it inline when called from inside a
  /// pool task or on a workerless pool).
  void enqueue(std::function<void()> task);

  struct Impl;
  Impl* impl_;
};

/// Convenience wrapper over ThreadPool::global(). `max_threads` caps the
/// threads working on this job, the caller included (0 = no cap); with a
/// cap of 1 the loop runs serially on the calling thread.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t max_threads = 0);

}  // namespace ftl::util
