#include "src/common/thread_pool.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>

namespace joinmi {

size_t DefaultThreadCount() {
  // hardware_concurrency() counts the host's online CPUs, which
  // oversubscribes a process confined by taskset or a cpuset. The mask is
  // the main thread's (pid == its tid): the one the process was started
  // with, not whichever thread asks, so a thread that pins itself cannot
  // shrink the shared pool by being the first to fan out.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(getpid(), sizeof(allowed), &allowed) == 0) {
    const int count = CPU_COUNT(&allowed);
    if (count > 0) return static_cast<size_t>(count);
  }
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

WorkSharingPool::WorkSharingPool(size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  num_threads = std::min(num_threads, kMaxPoolThreads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkSharingPool::~WorkSharingPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

WorkSharingPool& WorkSharingPool::Shared() {
  // Leaked on purpose: workers may still be parked on its mutex while
  // static destructors run at exit.
  static WorkSharingPool* const shared = new WorkSharingPool(0);
  return *shared;
}

size_t WorkSharingPool::HelpersFor(size_t n, size_t max_threads) const {
  if (max_threads == 0) max_threads = DefaultThreadCount();
  if (n <= 1 || max_threads <= 1) return 0;
  return std::min({max_threads - 1, n - 1, workers_.size()});
}

void WorkSharingPool::Run(Job* job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job->next_job = jobs_;
    jobs_ = job;
  }
  for (size_t i = 0; i < job->helpers_wanted; ++i) wake_.notify_one();
  Drain(job);
  std::unique_lock<std::mutex> lock(mutex_);
  Job** link = &jobs_;
  while (*link != job) link = &(*link)->next_job;
  *link = job->next_job;
  job->helpers_left.wait(lock, [job] { return job->helpers_active == 0; });
  if (job->error) std::rethrow_exception(job->error);
}

void WorkSharingPool::Drain(Job* job) {
  for (;;) {
    const size_t i = job->next_index.fetch_add(1);
    if (i >= job->n) return;
    try {
      job->invoke(job->ctx, i);
    } catch (...) {
      job->next_index.store(job->n);
      std::lock_guard<std::mutex> lock(mutex_);
      if (!job->error) job->error = std::current_exception();
      return;
    }
  }
}

void WorkSharingPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Job* job = nullptr;
    wake_.wait(lock, [this, &job] {
      for (Job* j = jobs_; j != nullptr; j = j->next_job) {
        if (j->helpers_joined < j->helpers_wanted) {
          job = j;
          return true;
        }
      }
      return stopping_;
    });
    if (job == nullptr) return;
    ++job->helpers_joined;
    ++job->helpers_active;
    lock.unlock();
    Drain(job);
    lock.lock();
    // Notified under the lock: the caller cannot see zero, return and
    // destroy the job until this worker lets go of the mutex.
    if (--job->helpers_active == 0) job->helpers_left.notify_one();
  }
}

}  // namespace joinmi
