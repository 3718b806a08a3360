// common::ThreadPool coverage: concurrent submission from many threads,
// destructor drain ordering, and exception propagation through futures. Runs in the stress tier so the TSan build
// (`cmake -DODA_SANITIZE=thread`, `ctest -L stress`) sweeps the pool's
// locking.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace {

using oda::common::ThreadPool;

TEST(ThreadPoolTest, SubmitReturnsResults) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPoolTest, ConcurrentSubmitFromManyThreads) {
  // 8 producer threads × 500 tasks each race submit() against the pool's
  // workers; every task must run exactly once.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  constexpr int kProducers = 8;
  constexpr int kTasksEach = 500;
  std::vector<std::thread> producers;
  std::vector<std::future<void>> futs[kProducers];
  producers.reserve(kProducers);
  for (auto& f : futs) f.reserve(kTasksEach);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kTasksEach; ++i) {
        futs[p].push_back(pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& pf : futs) {
    for (auto& f : pf) f.get();
  }
  EXPECT_EQ(ran.load(), kProducers * kTasksEach);
}

TEST(ThreadPoolTest, DestructorDrainsPendingQueue) {
  // Tasks already enqueued when the destructor runs must still execute:
  // workers exit only once stopping_ AND the queue is empty.
  std::atomic<int> ran{0};
  constexpr int kTasks = 200;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      (void)pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor joins here without any explicit wait on the futures.
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 42; }).get(), 42);
}

}  // namespace
