// Fixed-size thread pool with future-returning task submission. The pool is
// deliberately minimal — a locked deque feeding N workers — because the
// discovery workloads built on top of it are coarse-grained (one task per
// strip of 8 candidates, kCandidateStrip in discovery/topk_merge.h), so
// queue contention is negligible next to the scoring work each task
// performs.

#ifndef JOINMI_COMMON_THREAD_POOL_H_
#define JOINMI_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace joinmi {

/// \brief A fixed-size pool of worker threads draining a shared task queue.
///
/// Tasks may themselves submit further tasks. The destructor waits for all
/// queued and running tasks to finish before joining the workers.
class ThreadPool {
 public:
  /// \brief Starts `num_threads` workers; 0 means hardware concurrency
  /// (itself clamped to at least one). Requests are capped at
  /// `kMaxThreads` so a miscomputed count degrades instead of exhausting
  /// the process thread limit.
  explicit ThreadPool(size_t num_threads = 0);

  /// Upper bound on workers per pool.
  static constexpr size_t kMaxThreads = 1024;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Drains the queue and joins all workers.
  ~ThreadPool();

  size_t num_threads() const { return workers_.size(); }

  /// \brief Number of tasks currently queued (excludes running tasks).
  size_t queue_size() const;

  /// \brief Enqueues a callable and returns a future for its result. The
  /// callable's exceptions propagate through the future.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return future;
  }

  /// \brief Blocks until every queued and running task has completed.
  void Wait();

  /// \brief Hardware concurrency, never zero.
  static size_t DefaultThreadCount();

 private:
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;   // workers wait here for tasks
  std::condition_variable idle_;   // Wait() blocks here
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t active_ = 0;   // tasks currently executing
  bool stopping_ = false;
};

}  // namespace joinmi

#endif  // JOINMI_COMMON_THREAD_POOL_H_
