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

// Set while a pool task runs on this thread; nested parallel_for calls from
// inside a task must run inline or two jobs would deadlock on one pool.
thread_local bool t_inside_pool_task = false;

std::size_t default_thread_count() {
  if (const char* env = std::getenv("FTL_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;

  std::mutex m;
  std::condition_variable cv_work;  // workers: a job arrived (or shutdown)
  std::condition_variable cv_done;  // caller: all workers left the job
  bool stop = false;

  // Current job (valid while fn != nullptr). Indices are handed out through
  // `next`; each task owns its index, so results are placement-deterministic.
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};
  std::size_t generation = 0;
  std::size_t active = 0;       // workers currently running job indices
  std::size_t joined = 0;       // workers admitted to this job
  std::size_t max_extra = 0;    // worker admission cap for this job
  std::exception_ptr error;

  // Serializes concurrent parallel_for callers onto the single job slot.
  std::mutex job_guard;

  // Queued single tasks (submit); drained by workers alongside index jobs.
  std::deque<std::function<void()>> tasks;
  std::atomic<std::size_t> running_tasks{0};  // submit tasks executing now

  void run_indices() {
    t_inside_pool_task = true;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(m);
        if (!error) error = std::current_exception();
      }
    }
    t_inside_pool_task = false;
  }

  void worker_loop() {
    std::size_t last_generation = 0;
    for (;;) {
      std::unique_lock<std::mutex> lock(m);
      cv_work.wait(lock, [&] {
        return stop || !tasks.empty() ||
               (fn != nullptr && generation != last_generation);
      });
      if (stop) return;
      if (!tasks.empty()) {
        std::function<void()> task = std::move(tasks.front());
        tasks.pop_front();
        lock.unlock();
        t_inside_pool_task = true;
        ++running_tasks;
        task();  // packaged_task: exceptions land in the caller's future
        --running_tasks;
        t_inside_pool_task = false;
        continue;
      }
      last_generation = generation;
      if (joined >= max_extra) continue;  // admission cap reached
      ++joined;
      ++active;
      lock.unlock();
      run_indices();
      lock.lock();
      if (--active == 0) cv_done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(new Impl) {
  if (threads == 0) threads = default_thread_count();
  // The caller participates in every job, so spawn one fewer worker.
  const std::size_t extra = threads > 0 ? threads - 1 : 0;
  impl_->workers.reserve(extra);
  for (std::size_t i = 0; i < extra; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  // Satisfy the futures of any tasks the workers never picked up.
  for (std::function<void()>& task : impl_->tasks) task();
  delete impl_;
}

void ThreadPool::enqueue(std::function<void()> task) {
  // Inline cases: a workerless pool has nobody to hand the task to, and a
  // submit from inside a pool task must not wait on workers the caller may
  // itself be occupying.
  if (impl_->workers.empty() || t_inside_pool_task) {
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
  // Serial fast paths: tiny jobs, a cap of one thread, a single-thread
  // pool, or a nested call from inside a task (running inline avoids
  // self-deadlock).
  if (count == 1 || max_threads == 1 || impl_->workers.empty() ||
      t_inside_pool_task) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::lock_guard<std::mutex> job_lock(impl_->job_guard);
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->fn = &fn;
    impl_->count = count;
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->joined = 0;
    // The caller is one of the `max_threads`.
    impl_->max_extra = max_threads == 0
                           ? impl_->workers.size()
                           : std::min(impl_->workers.size(), max_threads - 1);
    impl_->error = nullptr;
    ++impl_->generation;
  }
  impl_->cv_work.notify_all();

  impl_->run_indices();

  std::unique_lock<std::mutex> lock(impl_->m);
  // Close admissions: a worker waking now must not enter the draining job,
  // or it could touch `fn` after this frame invalidates it.
  impl_->max_extra = 0;
  impl_->cv_done.wait(lock, [&] { return impl_->active == 0; });
  impl_->fn = nullptr;
  if (impl_->error) {
    std::exception_ptr e = impl_->error;
    impl_->error = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
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
