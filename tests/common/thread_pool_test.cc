#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace fungusdb {
namespace {

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  int calls = 0;
  pool.ParallelFor(5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ConcurrentSumMatchesSerial) {
  ThreadPool pool(8);
  constexpr size_t kN = 4096;
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(kN, [&](size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(ThreadPoolTest, SequentialParallelForsReuseWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> calls{0};
    pool.ParallelFor(16, [&](size_t) {
      calls.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(calls.load(), 16);
  }
  EXPECT_EQ(pool.tasks_dispatched(), 50u * 16u);
}

TEST(ThreadPoolTest, MoreTasksThanMorselsCompletes) {
  ThreadPool pool(8);
  // n smaller than worker count: helpers are capped at n - 1 so nobody
  // waits on a task that can never claim work.
  std::atomic<int> calls{0};
  pool.ParallelFor(2, [&](size_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), 2);
}

TEST(ThreadPoolTest, ManySmallParallelForsReturnOnlyAfterHelpersLeave) {
  // ParallelFor's join state lives on the caller's frame, and a decay
  // tick forks a handful of shards many times per second. Each call
  // must not return while its last helper still touches that state —
  // run under TSan/ASan in CI, a premature return shows up as a
  // use-after-scope.
  ThreadPool pool(4);
  for (int round = 0; round < 20000; ++round) {
    const size_t n = 2 + static_cast<size_t>(round % 3);  // 2..4 shards
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

}  // namespace
}  // namespace fungusdb
