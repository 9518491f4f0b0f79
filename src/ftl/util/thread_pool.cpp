#include "ftl/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace ftl::util {
namespace {

// The pool whose worker this thread is (null on every other thread). A
// submit from any pool's task runs inline, and a loop from another pool's
// task runs inline too, so a pool's workers never wait on a second pool.
thread_local const ThreadPool* t_worker_of = nullptr;

std::size_t default_thread_count() {
  if (const char* env = std::getenv("FTL_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// One parallel_for call. The caller and its queued helper tasks claim
// indices from `next`; each index writes its own result slot, so results
// are placement-deterministic. Helpers hold the loop by shared_ptr: one
// that starts after the call returned finds no index left and never
// touches `fn`.
struct Loop {
  Loop(const std::function<void(std::size_t)>& f, std::size_t n)
      : fn(&f), count(n) {}

  const std::function<void(std::size_t)>* fn;
  const std::size_t count;
  std::atomic<std::size_t> next{0};

  std::mutex m;
  std::condition_variable cv_done;
  std::size_t finished = 0;  // indices run to completion
  std::exception_ptr error;  // first exception thrown by any index

  // Claims and runs indices until none is left. An index that throws
  // still counts as finished, so every index runs.
  void run() {
    std::size_t ran = 0;
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < count;
         ++ran) {
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(m);
        if (!error) error = std::current_exception();
      }
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(m);
    finished += ran;
    if (finished == count) cv_done.notify_all();
  }
};

}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;

  std::mutex m;
  std::condition_variable cv_work;  // workers: a task arrived (or shutdown)
  bool stop = false;

  // The one queue: submit tasks and parallel_for helpers, first in first out.
  std::deque<std::function<void()>> tasks;
  std::atomic<std::size_t> running_tasks{0};  // tasks executing now

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(m);
        cv_work.wait(lock, [&] { return stop || !tasks.empty(); });
        if (stop) return;
        task = std::move(tasks.front());
        tasks.pop_front();
      }
      ++running_tasks;
      task();  // packaged_task: exceptions land in the caller's future
      --running_tasks;
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(new Impl) {
  if (threads == 0) threads = default_thread_count();
  // The caller participates in every loop, so spawn one fewer worker.
  const std::size_t extra = threads > 0 ? threads - 1 : 0;
  impl_->workers.reserve(extra);
  for (std::size_t i = 0; i < extra; ++i) {
    impl_->workers.emplace_back([this] {
      t_worker_of = this;
      impl_->worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  // Satisfy the futures of any tasks the workers never picked up (helpers
  // of finished loops find no index left and return at once).
  for (std::function<void()>& task : impl_->tasks) task();
  delete impl_;
}

void ThreadPool::enqueue(std::function<void()> task) {
  // Inline cases: a workerless pool has nobody to hand the task to, and a
  // submit from inside a pool task must not wait on workers the caller may
  // itself be occupying.
  if (impl_->workers.empty() || t_worker_of != nullptr) {
    ++impl_->running_tasks;
    task();
    --impl_->running_tasks;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->tasks.push_back(std::move(task));
  }
  impl_->cv_work.notify_one();
}

std::size_t ThreadPool::size() const { return impl_->workers.size() + 1; }

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(impl_->m);
  return impl_->tasks.size();
}

std::size_t ThreadPool::active_tasks() const {
  return impl_->running_tasks.load(std::memory_order_relaxed);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t max_threads) {
  if (count == 0) return;
  // Helpers beside the caller: one per spare index and worker, with the
  // caller counted as one of `max_threads`.
  std::size_t helpers = std::min(count - 1, impl_->workers.size());
  if (max_threads != 0) helpers = std::min(helpers, max_threads - 1);
  // Serial: nothing to share, or a task of another pool is calling (its
  // own pool's workers must not queue behind this one's).
  if (helpers == 0 || (t_worker_of != nullptr && t_worker_of != this)) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  const auto loop = std::make_shared<Loop>(fn, count);
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    for (std::size_t h = 0; h < helpers; ++h) {
      impl_->tasks.emplace_back([loop] { loop->run(); });
    }
  }
  for (std::size_t h = 0; h < helpers; ++h) impl_->cv_work.notify_one();

  // The caller claims whatever no idle worker has, then waits only for
  // indices already running on other threads. Those threads follow the
  // same rule, so no thread ever waits on an unclaimed index: a loop nested
  // in a task of this pool cannot deadlock, however busy the workers are.
  loop->run();
  std::unique_lock<std::mutex> lock(loop->m);
  loop->cv_done.wait(lock, [&] { return loop->finished == count; });
  if (loop->error) std::rethrow_exception(loop->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t max_threads) {
  ThreadPool::global().parallel_for(count, fn, max_threads);
}

}  // namespace ftl::util
