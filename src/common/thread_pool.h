// ParallelFor / WorkSharingPool: the fan-out of the query path (candidate
// strips, shards) and of the index build (column pairs). One process-wide
// pool, created on first use and never destroyed, runs every fan-out. The
// calling thread claims indices itself and up to `max_threads - 1` pool
// workers help it, all drawing from one atomic counter, so a worker that
// finishes one shard's strips early moves on to another's. Because the
// caller never waits for a worker to *start*, calls may nest (a shard's
// strips fan out from inside a worker running the shard) without
// deadlock, and the workers keep their thread-local scratch warm across
// queries. A call allocates nothing: its job lives on the caller's stack.

#ifndef JOINMI_COMMON_THREAD_POOL_H_
#define JOINMI_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace joinmi {

/// \brief Upper bound on the workers of one pool (the shared pool, a
/// shard server's request workers), so a miscomputed count degrades
/// instead of exhausting the process thread limit.
constexpr size_t kMaxPoolThreads = 1024;

/// \brief CPUs this process may run on, never zero: the affinity mask of
/// its main thread, so a taskset- or cpuset-limited process counts only
/// its own, and a thread that pins only itself changes nothing.
size_t DefaultThreadCount();

/// \brief Workers that help callers run `fn(0..n-1)`; see the file
/// comment. There is no global Wait(): each ParallelFor call waits for
/// exactly its own indices.
class WorkSharingPool {
 public:
  /// \brief Starts `num_threads` workers (0 = DefaultThreadCount(), capped
  /// at kMaxPoolThreads).
  explicit WorkSharingPool(size_t num_threads);

  WorkSharingPool(const WorkSharingPool&) = delete;
  WorkSharingPool& operator=(const WorkSharingPool&) = delete;

  /// \brief Joins the workers; no ParallelFor call may be in flight.
  ~WorkSharingPool();

  size_t num_threads() const { return workers_.size(); }

  /// \brief Runs `fn(i)` exactly once for every i in [0, n), on the
  /// calling thread plus up to `max_threads - 1` workers (0 =
  /// DefaultThreadCount()), and returns when all have run. Index order
  /// across threads is unspecified. If `fn` throws, no further indices
  /// start, and the first exception is rethrown here once every helper
  /// has left.
  template <typename Fn>
  void ParallelFor(size_t n, size_t max_threads, Fn&& fn) {
    const size_t helpers = HelpersFor(n, max_threads);
    if (helpers == 0) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    using F = std::remove_reference_t<Fn>;
    Job job(n, helpers,
            [](void* ctx, size_t i) { (*static_cast<F*>(ctx))(i); },
            const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
    Run(&job);
  }

  /// \brief The process-wide pool: DefaultThreadCount() workers, created
  /// on first use and never destroyed.
  static WorkSharingPool& Shared();

 private:
  // One ParallelFor call, on the caller's stack. Workers find it through
  // the intrusive list `jobs_`; the caller unlinks it before waiting, so
  // no worker can reach it after Run returns.
  struct Job {
    Job(size_t n_in, size_t helpers_in, void (*invoke_in)(void*, size_t),
        void* ctx_in)
        : n(n_in), helpers_wanted(helpers_in), invoke(invoke_in),
          ctx(ctx_in) {}

    const size_t n;
    const size_t helpers_wanted;
    void (*const invoke)(void* ctx, size_t i);
    void* const ctx;
    std::atomic<size_t> next_index{0};
    // Guarded by the pool mutex.
    size_t helpers_joined = 0;
    size_t helpers_active = 0;
    std::exception_ptr error;
    Job* next_job = nullptr;
    std::condition_variable helpers_left;
  };

  size_t HelpersFor(size_t n, size_t max_threads) const;
  void Run(Job* job);
  // Claims and runs indices until none are left.
  void Drain(Job* job);
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  Job* jobs_ = nullptr;  // jobs still accepting helpers, newest first
  bool stopping_ = false;
  std::vector<std::thread> workers_;  // last: the workers use the above
};

/// \brief WorkSharingPool::Shared().ParallelFor(n, max_threads, fn): the
/// one fan-out every query path uses.
template <typename Fn>
void ParallelFor(size_t n, size_t max_threads, Fn&& fn) {
  WorkSharingPool::Shared().ParallelFor(n, max_threads, std::forward<Fn>(fn));
}

}  // namespace joinmi

#endif  // JOINMI_COMMON_THREAD_POOL_H_
