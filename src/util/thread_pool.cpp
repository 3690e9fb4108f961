#include "util/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "util/contracts.hpp"

namespace mtg::util {

namespace {

/// Set while the current thread executes inside a parallel_for body, so a
/// nested call degrades to an inline loop instead of deadlocking on the
/// pool's job mutex. The (pool, worker) pair lets a same-pool nested loop
/// keep reporting the enclosing worker's id — required for the per-worker
/// accumulator contract (two lanes must never share an id).
thread_local bool tls_inside_pool = false;
thread_local const void* tls_pool = nullptr;
thread_local unsigned tls_worker = 0;

/// [begin, end) packed into one atomically-updatable word: begin in the
/// high half, end in the low half. Owners pop from the front; thieves chop
/// the back, so the two ends never contend on the same boundary.
constexpr std::uint64_t pack_range(std::uint64_t begin, std::uint64_t end) {
    return (begin << 32) | end;
}
constexpr std::uint32_t range_begin(std::uint64_t r) {
    return static_cast<std::uint32_t>(r >> 32);
}
constexpr std::uint32_t range_end(std::uint64_t r) {
    return static_cast<std::uint32_t>(r);
}

constexpr std::size_t kNoIndex = ~std::size_t{0};

}  // namespace

struct ThreadPool::Impl {
    std::mutex job_mutex;  ///< serialises whole parallel_for calls

    std::mutex mutex;  ///< guards the fields below
    std::condition_variable work_cv;
    std::condition_variable done_cv;
    std::uint64_t generation{0};
    const std::function<void(std::size_t, unsigned)>* body{nullptr};
    /// One contiguous index range per worker; work moves between slots
    /// only through the CAS protocol in drain().
    std::unique_ptr<std::atomic<std::uint64_t>[]> ranges;
    unsigned running{0};  ///< background workers still draining the job
    bool stop{false};
    /// Raised (before the ranges are cleared) when a body throws, so the
    /// drain loops stop executing even if an in-flight steal republishes
    /// a range after the clear — bounds post-error execution to one
    /// in-flight index per worker.
    std::atomic<bool> job_failed{false};
    std::exception_ptr error;
};

ThreadPool::ThreadPool(unsigned worker_count)
    : impl_(new Impl), workers_(worker_count == 0 ? 1 : worker_count) {
    impl_->ranges =
        std::make_unique<std::atomic<std::uint64_t>[]>(workers_);
    for (unsigned w = 0; w < workers_; ++w)
        impl_->ranges[w].store(0, std::memory_order_relaxed);
    threads_.reserve(workers_ - 1);
    for (unsigned w = 1; w < workers_; ++w)
        threads_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->stop = true;
    }
    impl_->work_cv.notify_all();
    for (std::thread& t : threads_) t.join();
    delete impl_;
}

std::size_t ThreadPool::take_index(unsigned worker) {
    auto& ranges = impl_->ranges;

    // Fast path: pop the front of this worker's own range.
    std::uint64_t cur = ranges[worker].load(std::memory_order_relaxed);
    while (range_begin(cur) < range_end(cur)) {
        const std::uint64_t next =
            pack_range(range_begin(cur) + std::uint64_t{1}, range_end(cur));
        if (ranges[worker].compare_exchange_weak(cur, next,
                                                 std::memory_order_relaxed))
            return range_begin(cur);
    }

    // Own range drained: steal half of another worker's remaining range
    // (the back half, so the victim's front-popping continues unimpeded).
    // One steal amortises the handoff over many indices — the whole point
    // of range handout versus a shared counter. Victims are visited in
    // ring order from the thief.
    for (unsigned k = 1; k < workers_; ++k) {
        const unsigned victim = (worker + k) % workers_;
        std::uint64_t vcur = ranges[victim].load(std::memory_order_relaxed);
        for (;;) {
            const std::uint32_t begin = range_begin(vcur);
            const std::uint32_t end = range_end(vcur);
            if (begin >= end) break;
            const std::uint32_t mid = begin + (end - begin) / 2;
            if (!ranges[victim].compare_exchange_weak(
                    vcur, pack_range(begin, mid),
                    std::memory_order_relaxed))
                continue;
            // [mid, end) is ours now: run `mid`, publish the rest as this
            // worker's range so future pops stay on the fast path. Our
            // slot is empty, so the store cannot orphan indices.
            ranges[worker].store(pack_range(mid + std::uint64_t{1}, end),
                                 std::memory_order_relaxed);
            return mid;
        }
    }
    return kNoIndex;  // nothing left anywhere: the grid is drained
}

void ThreadPool::drain(unsigned worker) {
    tls_pool = this;
    tls_worker = worker;
    for (;;) {
        if (impl_->job_failed.load(std::memory_order_relaxed)) return;
        const std::size_t i = take_index(worker);
        if (i == kNoIndex) return;
        try {
            (*impl_->body)(i, worker);
        } catch (...) {
            impl_->job_failed.store(true, std::memory_order_relaxed);
            {
                std::lock_guard<std::mutex> lock(impl_->mutex);
                if (!impl_->error) impl_->error = std::current_exception();
            }
            // Starve the remaining indices so the loop winds down fast.
            for (unsigned w = 0; w < workers_; ++w)
                impl_->ranges[w].store(0, std::memory_order_relaxed);
            return;
        }
    }
}

void ThreadPool::worker_loop(unsigned worker) {
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(impl_->mutex);
            impl_->work_cv.wait(lock, [&] {
                return impl_->stop || impl_->generation != seen;
            });
            if (impl_->stop) return;
            seen = impl_->generation;
        }
        tls_inside_pool = true;
        drain(worker);
        tls_inside_pool = false;
        {
            std::lock_guard<std::mutex> lock(impl_->mutex);
            if (--impl_->running == 0) impl_->done_cv.notify_one();
        }
    }
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t, unsigned)>& body) {
    if (count == 0) return;
    // Serial pools, tiny loops and nested calls run inline: the loop is
    // already inside a worker's quantum, so forking again cannot help. A
    // same-pool nested loop keeps the enclosing worker's id so concurrent
    // bodies never collide on one per-worker accumulator slot; inline
    // loops outside any pool context report worker 0.
    if (workers_ == 1 || count == 1 || tls_inside_pool) {
        const unsigned worker = tls_pool == this ? tls_worker : 0;
        for (std::size_t i = 0; i < count; ++i) body(i, worker);
        return;
    }
    MTG_EXPECTS(count <= 0xFFFFFFFFu);  // ranges pack two 32-bit bounds

    std::lock_guard<std::mutex> job(impl_->job_mutex);
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->body = &body;
        // Contiguous per-worker ranges, balanced to within one index.
        // Workers pop their own range front lock-free and steal the back
        // half of a victim's range only when theirs drains — at most
        // O(workers · log(count)) CAS handoffs per job instead of one
        // shared-counter fetch_add per index.
        for (unsigned w = 0; w < workers_; ++w)
            impl_->ranges[w].store(
                pack_range(std::uint64_t{count} * w / workers_,
                           std::uint64_t{count} * (w + 1) / workers_),
                std::memory_order_relaxed);
        impl_->running = workers_ - 1;
        impl_->error = nullptr;
        impl_->job_failed.store(false, std::memory_order_relaxed);
        ++impl_->generation;
    }
    impl_->work_cv.notify_all();

    tls_inside_pool = true;
    drain(/*worker=*/0);
    tls_inside_pool = false;

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(impl_->mutex);
        impl_->done_cv.wait(lock, [&] { return impl_->running == 0; });
        impl_->body = nullptr;
        error = impl_->error;
    }
    if (error) std::rethrow_exception(error);
}

unsigned ThreadPool::parse_worker_count(const char* value, unsigned fallback) {
    if (value == nullptr || *value == '\0') return fallback;
    char* end = nullptr;
    const long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0') return fallback;
    if (parsed < 1 || parsed > 1024) return fallback;
    return static_cast<unsigned>(parsed);
}

unsigned ThreadPool::configured_worker_count() {
    const unsigned hardware = std::thread::hardware_concurrency();
    const unsigned fallback = hardware == 0 ? 1 : hardware;
    return parse_worker_count(std::getenv("MTG_THREADS"), fallback);
}

ThreadPool& ThreadPool::global() {
    static ThreadPool pool(configured_worker_count());
    return pool;
}

}  // namespace mtg::util
