// Tests for the shared thread pool: ParallelFor on the work-sharing pool
// (every index once, nesting, exceptions, concurrent callers), and the
// default thread count, which follows the process's CPU affinity.

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"

namespace joinmi {
namespace {

TEST(DefaultThreadCountTest, IsPositiveAndSizesADefaultPool) {
  EXPECT_GE(DefaultThreadCount(), 1u);
  WorkSharingPool pool(0);
  EXPECT_EQ(pool.num_threads(), DefaultThreadCount());
}

// Restricts the calling thread to the single CPU `cpu`; false if the
// kernel refuses.
bool PinToCpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
}

TEST(DefaultThreadCountTest, FollowsProcessCpuAffinity) {
  // The process's mask is its main thread's, which gtest runs tests on.
  ASSERT_EQ(static_cast<pid_t>(syscall(SYS_gettid)), getpid());
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  const size_t process_count = static_cast<size_t>(CPU_COUNT(&allowed));
  EXPECT_EQ(DefaultThreadCount(), process_count);
  int first_cpu = 0;
  while (!CPU_ISSET(first_cpu, &allowed)) ++first_cpu;

  // A thread that pins only itself does not shrink the count, so it cannot
  // shrink the shared pool by being the first to fan out.
  size_t pinned_thread_count = 0;
  std::thread pinned([first_cpu, &pinned_thread_count] {
    if (PinToCpu(first_cpu)) {
      pinned_thread_count = DefaultThreadCount();
    }
  });
  pinned.join();
  EXPECT_EQ(pinned_thread_count, process_count);

  // A process confined to one CPU (as `taskset -c 0` starts it) counts one,
  // however many CPUs the host has online.
  ASSERT_TRUE(PinToCpu(first_cpu));
  const size_t confined_count = DefaultThreadCount();
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed),
            0);
  EXPECT_EQ(confined_count, 1u);
}

// ------------------------------------------------------------ ParallelFor

// Runs ParallelFor(n, max_threads) on `pool` and checks every index ran
// exactly once.
void ExpectEveryIndexOnce(WorkSharingPool& pool, size_t n,
                          size_t max_threads) {
  std::unique_ptr<std::atomic<int>[]> hits(new std::atomic<int>[n + 1]);
  for (size_t i = 0; i < n; ++i) hits[i] = 0;
  pool.ParallelFor(n, max_threads, [&hits](size_t i) { hits[i]++; });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << n
                                 << ", max_threads " << max_threads;
  }
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  WorkSharingPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  for (size_t n : {0u, 1u, 2u, 7u, 1000u}) {
    for (size_t max_threads : {1u, 2u, 4u, 16u, 0u}) {
      ExpectEveryIndexOnce(pool, n, max_threads);
    }
  }
}

TEST(ParallelForTest, SharedPoolIsOneProcessWidePool) {
  WorkSharingPool& shared = WorkSharingPool::Shared();
  EXPECT_EQ(&shared, &WorkSharingPool::Shared());
  EXPECT_GE(shared.num_threads(), 1u);
  std::atomic<size_t> sum{0};
  ParallelFor(100, 0, [&sum](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 99u * 100u / 2u);
}

TEST(ParallelForTest, HelpersShareTheWorkOfOneCall) {
  // With two workers and a body that waits until three threads are
  // inside it, the call can only finish if both workers help the caller.
  WorkSharingPool pool(2);
  std::atomic<int> inside{0};
  pool.ParallelFor(3, 3, [&inside](size_t) {
    ++inside;
    while (inside.load() < 3) std::this_thread::yield();
  });
  EXPECT_EQ(inside.load(), 3);
}

TEST(ParallelForTest, NestsThreeDeepFromInsidePoolWorkers) {
  for (size_t workers : {1u, 2u}) {
    WorkSharingPool pool(workers);
    // The outer call has one index per thread and holds each until every
    // worker has joined, so every worker nests from inside a ParallelFor
    // body while no worker is free to help it.
    const size_t outer = workers + 1;
    std::atomic<size_t> inside{0};
    std::atomic<int> leaves{0};
    pool.ParallelFor(outer, outer, [&](size_t) {
      ++inside;
      while (inside.load() < outer) std::this_thread::yield();
      pool.ParallelFor(5, 8, [&](size_t) {
        pool.ParallelFor(4, 8, [&](size_t) { ++leaves; });
      });
    });
    EXPECT_EQ(leaves.load(), static_cast<int>(outer * 5 * 4))
        << workers << " workers";
  }
}

TEST(ParallelForTest, BodyExceptionReachesTheCaller) {
  WorkSharingPool pool(3);
  for (size_t max_threads : {1u, 4u}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.ParallelFor(200, max_threads,
                                  [&ran](size_t i) {
                                    ++ran;
                                    if (i == 37) {
                                      throw std::runtime_error("strip failed");
                                    }
                                  }),
                 std::runtime_error);
    EXPECT_GE(ran.load(), 1);
  }
  // The pool keeps serving after a failed call.
  ExpectEveryIndexOnce(pool, 64, 4);
}

TEST(ParallelForTest, ConcurrentExternalCallers) {
  WorkSharingPool pool(4);
  std::vector<std::thread> callers;
  std::vector<size_t> sums(8, 0);
  for (size_t t = 0; t < 8; ++t) {
    callers.emplace_back([&pool, &sums, t] {
      for (int rep = 0; rep < 50; ++rep) {
        std::atomic<size_t> sum{0};
        pool.ParallelFor(64, 4, [&sum](size_t i) { sum += i + 1; });
        sums[t] += sum.load();
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (size_t t = 0; t < 8; ++t) EXPECT_EQ(sums[t], 50u * 64u * 65u / 2u);
}

}  // namespace
}  // namespace joinmi
