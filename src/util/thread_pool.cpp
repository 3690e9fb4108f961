#include "util/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>

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

}  // namespace

struct ThreadPool::Impl {
    std::mutex job_mutex;  ///< serialises whole parallel_for calls

    std::mutex mutex;  ///< guards the fields below except `next`
    std::condition_variable work_cv;
    std::condition_variable done_cv;
    std::uint64_t generation{0};
    const std::function<void(std::size_t, unsigned)>* body{nullptr};
    std::size_t count{0};
    /// The next index to hand out; at or past `count` the job is drained.
    /// A failing body moves it to `count`, so every lane stops after the
    /// item it is running.
    std::atomic<std::size_t> next{0};
    unsigned running{0};  ///< background workers still draining the job
    bool stop{false};
    std::exception_ptr error;
};

ThreadPool::ThreadPool(unsigned worker_count)
    : impl_(new Impl), workers_(worker_count == 0 ? 1 : worker_count) {
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

void ThreadPool::drain(unsigned worker) {
    tls_pool = this;
    tls_worker = worker;
    for (;;) {
        const std::size_t i =
            impl_->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= impl_->count) return;
        try {
            (*impl_->body)(i, worker);
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(impl_->mutex);
                if (!impl_->error) impl_->error = std::current_exception();
            }
            impl_->next.store(impl_->count, std::memory_order_relaxed);
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

    std::lock_guard<std::mutex> job(impl_->job_mutex);
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->body = &body;
        impl_->count = count;
        impl_->next.store(0, std::memory_order_relaxed);
        impl_->running = workers_ - 1;
        impl_->error = nullptr;
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
