#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace mtg::util {
namespace {

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
    for (unsigned workers : {1u, 2u, 4u}) {
        ThreadPool pool(workers);
        constexpr std::size_t kCount = 1000;
        std::vector<std::atomic<int>> hits(kCount);
        pool.parallel_for(kCount, [&](std::size_t i, unsigned) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < kCount; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << " workers "
                                         << workers;
    }
}

TEST(ThreadPool, WorkerIdsStayBelowWorkerCount) {
    ThreadPool pool(3);
    ASSERT_EQ(pool.worker_count(), 3u);
    std::vector<std::atomic<int>> by_worker(pool.worker_count());
    pool.parallel_for(500, [&](std::size_t, unsigned worker) {
        ASSERT_LT(worker, pool.worker_count());
        by_worker[worker].fetch_add(1, std::memory_order_relaxed);
    });
    int total = 0;
    for (auto& w : by_worker) total += w.load();
    EXPECT_EQ(total, 500);
}

TEST(ThreadPool, PerWorkerAccumulatorsMergeToTheFullSet) {
    // The usage pattern of the batched runners: lock-free per-worker
    // partial results, merged after the loop drains.
    ThreadPool pool(4);
    std::vector<std::vector<std::size_t>> acc(pool.worker_count());
    pool.parallel_for(257, [&](std::size_t i, unsigned worker) {
        acc[worker].push_back(i);
    });
    std::set<std::size_t> merged;
    for (const auto& partial : acc) merged.insert(partial.begin(), partial.end());
    EXPECT_EQ(merged.size(), 257u);
}

TEST(ThreadPool, ZeroAndSingleIndexLoops) {
    ThreadPool pool(4);
    int runs = 0;
    pool.parallel_for(0, [&](std::size_t, unsigned) { ++runs; });
    EXPECT_EQ(runs, 0);
    pool.parallel_for(1, [&](std::size_t i, unsigned worker) {
        EXPECT_EQ(i, 0u);
        EXPECT_EQ(worker, 0u);  // single-index loops run inline
        ++runs;
    });
    EXPECT_EQ(runs, 1);
}

TEST(ThreadPool, ExceptionsPropagateToTheCaller) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for(100,
                                   [&](std::size_t i, unsigned) {
                                       if (i == 37)
                                           throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // The pool stays usable after a failed loop.
    std::atomic<int> ok{0};
    pool.parallel_for(10, [&](std::size_t, unsigned) { ++ok; });
    EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, NestedLoopsRunInlineOnTheEnclosingWorker) {
    // A same-pool nested loop runs inline and keeps reporting the
    // enclosing worker's id, so per-worker accumulator slots never
    // collide across concurrently-nesting bodies.
    ThreadPool pool(2);
    std::atomic<int> inner_total{0};
    pool.parallel_for(8, [&](std::size_t, unsigned outer) {
        pool.parallel_for(8, [&](std::size_t, unsigned inner) {
            EXPECT_EQ(inner, outer);
            inner_total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(inner_total.load(), 64);

    // Cross-pool nesting also runs inline; the foreign pool's id space is
    // unknown to the nested thread, so it reports worker 0 there.
    ThreadPool other(2);
    std::atomic<int> cross_total{0};
    pool.parallel_for(4, [&](std::size_t, unsigned) {
        other.parallel_for(4, [&](std::size_t, unsigned inner) {
            EXPECT_EQ(inner, 0u);
            cross_total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(cross_total.load(), 16);
}

TEST(ThreadPool, ReusableAcrossManyLoops) {
    ThreadPool pool(3);
    std::atomic<long> total{0};
    for (int round = 0; round < 50; ++round)
        pool.parallel_for(17, [&](std::size_t i, unsigned) {
            total.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
        });
    EXPECT_EQ(total.load(), 50L * (16 * 17 / 2));
}

TEST(ThreadPool, ParsesWorkerCountOverride) {
    EXPECT_EQ(ThreadPool::parse_worker_count(nullptr, 5), 5u);
    EXPECT_EQ(ThreadPool::parse_worker_count("", 5), 5u);
    EXPECT_EQ(ThreadPool::parse_worker_count("3", 5), 3u);
    EXPECT_EQ(ThreadPool::parse_worker_count("1", 5), 1u);
    EXPECT_EQ(ThreadPool::parse_worker_count("0", 5), 5u);
    EXPECT_EQ(ThreadPool::parse_worker_count("-2", 5), 5u);
    EXPECT_EQ(ThreadPool::parse_worker_count("8x", 5), 5u);
    EXPECT_EQ(ThreadPool::parse_worker_count("notanumber", 5), 5u);
    EXPECT_EQ(ThreadPool::parse_worker_count("99999", 5), 5u);  // > cap
}

TEST(ThreadPool, SkewedWorkRunsEveryIndexExactlyOnce) {
    // The first quarter of the indices is slow, so the lanes race through
    // the cheap rest while some are still busy: exactly-once execution
    // proves the shared counter never duplicates or drops an index when
    // the lanes' paces differ.
    ThreadPool pool(4);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallel_for(kCount, [&](std::size_t i, unsigned) {
        if (i < 250) {
            // Skewed cost: busy-wait so the slow items take a while.
            std::atomic<int> spin{0};
            while (spin.fetch_add(1, std::memory_order_relaxed) < 2000) {
            }
        }
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ExactlyOnceAcrossManyShapes) {
    // The handout across worker counts and loop sizes, including counts
    // that do not divide evenly and counts smaller than the worker count
    // (some workers find the counter already drained and exit).
    for (unsigned workers : {2u, 3u, 8u}) {
        ThreadPool pool(workers);
        for (std::size_t count : {2ul, 7ul, 63ul, 64ul, 257ul, 4096ul}) {
            std::vector<std::atomic<int>> hits(count);
            pool.parallel_for(count, [&](std::size_t i, unsigned) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::size_t i = 0; i < count; ++i)
                ASSERT_EQ(hits[i].load(), 1)
                    << "workers " << workers << " count " << count
                    << " index " << i;
        }
    }
}

TEST(ThreadPool, GlobalPoolExistsAndWorks) {
    ThreadPool& pool = ThreadPool::global();
    ASSERT_GE(pool.worker_count(), 1u);
    std::atomic<int> runs{0};
    pool.parallel_for(32, [&](std::size_t, unsigned) { ++runs; });
    EXPECT_EQ(runs.load(), 32);
}

#if defined(__linux__)
/// The pool never pins a thread: every body, whichever lane runs it,
/// sees the CPU mask of the thread that built the pool. The four bodies
/// wait for each other, so each of the four lanes runs one of them.
TEST(ThreadPool, WorkersInheritTheCallersCpuMask) {
    cpu_set_t caller;
    CPU_ZERO(&caller);
    ASSERT_EQ(sched_getaffinity(0, sizeof caller, &caller), 0);

    ThreadPool pool(4);
    constexpr std::size_t kCount = 4;
    std::vector<cpu_set_t> masks(kCount);
    std::vector<int> status(kCount, -1);
    std::atomic<std::size_t> arrived{0};
    pool.parallel_for(kCount, [&](std::size_t i, unsigned) {
        CPU_ZERO(&masks[i]);
        status[i] = sched_getaffinity(0, sizeof masks[i], &masks[i]);
        arrived.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (arrived.load() < kCount &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    });
    ASSERT_EQ(arrived.load(), kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(status[i], 0) << "index " << i;
        EXPECT_TRUE(CPU_EQUAL(&masks[i], &caller)) << "index " << i;
    }
}
#endif

}  // namespace
}  // namespace mtg::util
