#pragma once

/// \file thread_pool.hpp
/// Fixed-size worker pool for data-parallel loops over independent indices.
///
/// The packed kernels run one work item per population chunk (a whole
/// pass over every ⇕ choice), so a loop is one to about a thousand items:
/// `parallel_for(count, body)` invokes `body(index, worker)` exactly once
/// for every index in [0, count), with `worker` in [0, worker_count())
/// identifying the executing lane so callers can keep atomic-free
/// per-worker accumulators and merge them after the call returns. Every
/// lane takes its next index from one shared atomic counter, so a slow
/// item never strands the others behind it. Item → worker assignment is
/// nondeterministic; callers merge order-independently.
///
/// The process-wide pool (`ThreadPool::global()`) sizes itself from the
/// MTG_THREADS environment variable when set to a positive integer,
/// falling back to std::thread::hardware_concurrency(). MTG_THREADS=1
/// disables threading entirely (every loop runs inline on the caller).
/// Workers are never pinned: they inherit the CPU mask of the thread that
/// builds the pool.

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace mtg::util {

class ThreadPool {
public:
    /// Pool with `worker_count` total execution lanes. The calling thread
    /// of parallel_for always participates as worker 0, so only
    /// `worker_count - 1` background threads are spawned.
    explicit ThreadPool(unsigned worker_count);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total execution lanes (background threads + the caller).
    [[nodiscard]] unsigned worker_count() const { return workers_; }

    /// Runs body(index, worker) once per index in [0, count). Blocks until
    /// every index completed. The first exception thrown by any invocation
    /// is rethrown on the caller after the loop drains. Concurrent
    /// parallel_for calls from different threads are serialised; a nested
    /// call from inside a body runs inline on the calling worker.
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t, unsigned)>& body);

    /// The shared process-wide pool used by the batched runners by default.
    static ThreadPool& global();

    /// Worker count the global pool is created with: MTG_THREADS when it
    /// parses to a positive integer, else hardware_concurrency (min 1).
    [[nodiscard]] static unsigned configured_worker_count();

    /// Parsing rule behind MTG_THREADS, exposed for tests: a decimal
    /// integer in [1, 1024] wins; null/empty/garbage/0 yield `fallback`.
    [[nodiscard]] static unsigned parse_worker_count(const char* value,
                                                     unsigned fallback);

private:
    struct Impl;
    Impl* impl_;        ///< synchronisation state shared with the workers
    unsigned workers_;  ///< total lanes, >= 1
    std::vector<std::thread> threads_;

    void worker_loop(unsigned worker);
    void drain(unsigned worker);
};

}  // namespace mtg::util
