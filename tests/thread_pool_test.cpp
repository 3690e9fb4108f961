#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/affinity.hpp"
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

TEST(ThreadPool, StealingRebalancesSkewedWork) {
    // One range hides almost all the work behind a single slow prefix:
    // worker 0's initial range [0, 250) carries long items, so the other
    // workers must steal from it to finish. Exactly-once execution proves
    // range splits never duplicate or drop indices.
    ThreadPool pool(4);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    std::atomic<int> stolen_by_others{0};
    pool.parallel_for(kCount, [&](std::size_t i, unsigned worker) {
        if (i < 250) {
            // Skewed cost: busy-wait so the front range drains slowly.
            std::atomic<int> spin{0};
            while (spin.fetch_add(1, std::memory_order_relaxed) < 2000) {
            }
            if (worker != 0)
                stolen_by_others.fetch_add(1, std::memory_order_relaxed);
        }
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    // Not asserted > 0: a 1-core host may legitimately drain in order.
    SUCCEED() << "items stolen from the slow range: "
              << stolen_by_others.load();
}

TEST(ThreadPool, ExactlyOnceAcrossManyShapes) {
    // Range handout + batch stealing across worker counts and loop sizes,
    // including counts that do not divide evenly and counts smaller than
    // the worker count (some workers start with empty ranges and must
    // steal or exit).
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

TEST(Affinity, ParsesAffinityMode) {
    EXPECT_EQ(parse_affinity_mode(nullptr), AffinityMode::Auto);
    EXPECT_EQ(parse_affinity_mode(""), AffinityMode::Auto);
    EXPECT_EQ(parse_affinity_mode("auto"), AffinityMode::Auto);
    EXPECT_EQ(parse_affinity_mode("off"), AffinityMode::Off);
    EXPECT_EQ(parse_affinity_mode("compact"), AffinityMode::Compact);
    EXPECT_EQ(parse_affinity_mode("spread"), AffinityMode::Spread);
    EXPECT_EQ(parse_affinity_mode("COMPACT"), AffinityMode::Auto);
    EXPECT_EQ(parse_affinity_mode("numa"), AffinityMode::Auto);
}

TEST(Affinity, ParsesSysfsCpuLists) {
    using List = std::vector<int>;
    EXPECT_EQ(parse_cpu_list("0-3"), (List{0, 1, 2, 3}));
    EXPECT_EQ(parse_cpu_list("0-3,8,10-11"), (List{0, 1, 2, 3, 8, 10, 11}));
    EXPECT_EQ(parse_cpu_list("5"), (List{5}));
    EXPECT_EQ(parse_cpu_list("0-1,1-2"), (List{0, 1, 2}));  // de-duplicated
    EXPECT_EQ(parse_cpu_list("3,1,2"), (List{1, 2, 3}));    // sorted
    EXPECT_EQ(parse_cpu_list("0-3\n"), (List{0, 1, 2, 3}));  // sysfs newline
    EXPECT_EQ(parse_cpu_list(""), List{});
    EXPECT_EQ(parse_cpu_list("abc"), List{});
    EXPECT_EQ(parse_cpu_list("3-1"), List{});  // inverted range
    EXPECT_EQ(parse_cpu_list("-1"), List{});
}

/// A synthetic two-node topology pins compact workers into node 0 first
/// and deals spread workers across nodes; worker 0 (the caller) is never
/// pinned but keeps a node slot for steal grouping.
TEST(Affinity, PlansCompactAndSpreadPlacements) {
    CpuTopology topo;
    topo.node_cpus = {{0, 1, 2, 3}, {4, 5, 6, 7}};

    const auto compact = plan_worker_cpus(topo, AffinityMode::Compact, 4);
    ASSERT_EQ(compact.size(), 4u);
    EXPECT_EQ(compact[0].cpu, -1);  // caller stays unpinned
    EXPECT_EQ(compact[0].node, 0);
    EXPECT_EQ(compact[1].cpu, 1);
    EXPECT_EQ(compact[2].cpu, 2);
    EXPECT_EQ(compact[3].cpu, 3);
    for (const auto& p : compact) EXPECT_EQ(p.node, 0);

    const auto spread = plan_worker_cpus(topo, AffinityMode::Spread, 4);
    ASSERT_EQ(spread.size(), 4u);
    EXPECT_EQ(spread[0].cpu, -1);
    EXPECT_EQ(spread[0].node, 0);  // would have been cpu 0 on node 0
    EXPECT_EQ(spread[1].cpu, 4);
    EXPECT_EQ(spread[1].node, 1);
    EXPECT_EQ(spread[2].cpu, 1);
    EXPECT_EQ(spread[2].node, 0);
    EXPECT_EQ(spread[3].cpu, 5);
    EXPECT_EQ(spread[3].node, 1);

    // Off and (single-node) Auto never pin.
    for (const auto& p : plan_worker_cpus(topo, AffinityMode::Off, 4))
        EXPECT_EQ(p.cpu, -1);
    CpuTopology uma;
    uma.node_cpus = {{0, 1}};
    for (const auto& p : plan_worker_cpus(uma, AffinityMode::Auto, 4))
        EXPECT_EQ(p.cpu, -1);
    // Multi-node Auto spreads.
    const auto auto_plan = plan_worker_cpus(topo, AffinityMode::Auto, 3);
    EXPECT_EQ(auto_plan[1].cpu, 4);
    EXPECT_EQ(auto_plan[2].cpu, 1);
}

TEST(Affinity, MoreWorkersThanCpusWrapAround) {
    CpuTopology topo;
    topo.node_cpus = {{0, 1}};
    const auto plan = plan_worker_cpus(topo, AffinityMode::Compact, 5);
    ASSERT_EQ(plan.size(), 5u);
    EXPECT_EQ(plan[0].cpu, -1);
    EXPECT_EQ(plan[1].cpu, 1);
    EXPECT_EQ(plan[2].cpu, 0);  // wrapped
    EXPECT_EQ(plan[3].cpu, 1);
    EXPECT_EQ(plan[4].cpu, 0);
}

TEST(Affinity, StealOrderVisitsSameNodeVictimsFirst) {
    // Workers 0,2 on node 0 and 1,3 on node 1: each worker's steal order
    // must list every other worker exactly once, same-node first, ring
    // order within each group.
    const std::vector<WorkerPlacement> placements{
        {-1, 0}, {4, 1}, {1, 0}, {5, 1}};
    EXPECT_EQ(plan_steal_order(placements, 0),
              (std::vector<unsigned>{2, 1, 3}));
    EXPECT_EQ(plan_steal_order(placements, 1),
              (std::vector<unsigned>{3, 2, 0}));
    EXPECT_EQ(plan_steal_order(placements, 2),
              (std::vector<unsigned>{0, 3, 1}));
    EXPECT_EQ(plan_steal_order(placements, 3),
              (std::vector<unsigned>{1, 0, 2}));

    // Single-node placements degenerate to the plain ring.
    const std::vector<WorkerPlacement> flat{{-1, 0}, {1, 0}, {2, 0}};
    EXPECT_EQ(plan_steal_order(flat, 1), (std::vector<unsigned>{2, 0}));
    EXPECT_TRUE(plan_steal_order({{-1, 0}}, 0).empty());
}

TEST(Affinity, SystemTopologyIsSane) {
    const CpuTopology& topo = system_topology();
    ASSERT_GE(topo.node_count(), 1u);
    ASSERT_GE(topo.cpu_count(), 1u);
    for (const auto& cpus : topo.node_cpus) EXPECT_FALSE(cpus.empty());
}

/// Every affinity mode must produce the same parallel_for semantics —
/// exactly-once execution and in-range worker ids — since placement can
/// only move threads, never change the work they do. (The runner-level
/// bit-identical differential is sparse_trace_test / word_trace_test's
/// job; this is the pool-level contract under explicit modes.)
TEST(Affinity, PoolSemanticsIdenticalUnderEveryMode) {
    for (AffinityMode mode : {AffinityMode::Off, AffinityMode::Compact,
                              AffinityMode::Spread}) {
        ThreadPool pool(3, mode);
        constexpr std::size_t kCount = 512;
        std::vector<std::atomic<int>> hits(kCount);
        std::atomic<int> bad_worker{0};
        pool.parallel_for(kCount, [&](std::size_t i, unsigned worker) {
            if (worker >= pool.worker_count())
                bad_worker.fetch_add(1, std::memory_order_relaxed);
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < kCount; ++i)
            ASSERT_EQ(hits[i].load(), 1)
                << "mode " << static_cast<int>(mode) << " index " << i;
        EXPECT_EQ(bad_worker.load(), 0);
    }
}

}  // namespace
}  // namespace mtg::util
