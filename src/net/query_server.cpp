#include "net/query_server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <utility>

#include "net/framing.hpp"
#include "util/contracts.hpp"

namespace mtg::net {

namespace {

/// Worker lanes of the interactive engine's private pool.
constexpr unsigned kInteractivePoolWorkers = 2;
/// Retained DictionarySweep results, evicted first in, first out.
constexpr std::size_t kSweepCacheEntries = 32;

}  // namespace

/// One client connection: the line channel plus the write lock that
/// serialises replies from executors against replies from the session's
/// own reader (ping/stats/errors).
struct QueryServer::Session {
    explicit Session(int fd) : channel(fd) {}

    LineChannel channel;
    std::mutex write_mutex;
};

/// One admitted unit of backend work. `subscribers` is every (id,
/// session) waiting on it — one after admission, more after coalescing.
struct QueryServer::Task {
    QueryRequest request;  ///< the first request admitted under this key
    engine::Query query;
    std::string key;
    QueryClass klass{QueryClass::Interactive};
    std::vector<std::pair<std::int64_t, std::shared_ptr<Session>>> subscribers;
};

QueryServer::QueryServer(QueryServerOptions options)
    : options_(options),
      cache_(options.cache != nullptr
                 ? options.cache
                 : std::make_shared<engine::PopulationCache>()) {
    if (options_.interactive_executors < 1) options_.interactive_executors = 1;
    if (options_.bulk_executors < 1) options_.bulk_executors = 1;
    interactive_pool_ =
        std::make_unique<util::ThreadPool>(kInteractivePoolWorkers);
    engine::EngineConfig interactive_config;
    interactive_config.pool = interactive_pool_.get();
    interactive_config.cache = cache_;
    interactive_engine_ =
        std::make_unique<engine::Engine>(interactive_config);
    engine::EngineConfig bulk_config;
    bulk_config.cache = cache_;
    bulk_engine_ = std::make_unique<engine::Engine>(bulk_config);

    for (int i = 0; i < options_.interactive_executors; ++i)
        executors_.emplace_back(
            [this] { executor_loop(QueryClass::Interactive); });
    for (int i = 0; i < options_.bulk_executors; ++i)
        executors_.emplace_back([this] { executor_loop(QueryClass::Bulk); });
}

QueryServer::~QueryServer() { stop(); }

void QueryServer::serve_fd(int fd) {
    auto session = std::make_shared<Session>(fd);
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;  // Session's destructor closes the fd
    ++stats_.sessions;
    sessions_.push_back(session);
    session_threads_.emplace_back(
        [this, session] { session_loop(session); });
}

std::uint16_t QueryServer::listen(std::uint16_t port) {
    MTG_EXPECTS(listen_fd_ < 0);
    listen_fd_ = tcp_listen(port);
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
        0)
        throw std::runtime_error("getsockname failed");
    port_ = ntohs(addr.sin_port);
    accept_thread_ = std::thread([this] { accept_loop(); });
    return port_;
}

void QueryServer::accept_loop() {
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return;  // stop() shut the listen socket down
        }
        // Replies are single short lines; under Nagle a pipelining client
        // would wait on its own delayed ACK for every one after the first.
        set_tcp_nodelay(fd);
        serve_fd(fd);
    }
}

void QueryServer::stop() {
    std::vector<std::shared_ptr<Task>> orphaned;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) return;
        stopping_ = true;
        for (auto& task : interactive_queue_) orphaned.push_back(task);
        for (auto& task : bulk_queue_) orphaned.push_back(task);
        interactive_queue_.clear();
        bulk_queue_.clear();
        tasks_by_key_.clear();
    }
    work_cv_.notify_all();
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    for (auto& task : orphaned)
        for (auto& [id, session] : task->subscribers)
            reply(session, render_error(id, "server stopped"), true);
    // Executors first: running tasks finish and answer over still-open
    // sessions; only then are the sessions woken and joined.
    for (std::thread& executor : executors_) executor.join();
    executors_.clear();
    std::vector<std::shared_ptr<Session>> sessions;
    std::vector<std::thread> session_threads;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sessions.swap(sessions_);
        session_threads.swap(session_threads_);
    }
    for (auto& session : sessions) session->channel.shutdown();
    for (std::thread& thread : session_threads) thread.join();
}

QueryServer::Stats QueryServer::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void QueryServer::reply(const std::shared_ptr<Session>& session,
                        const std::string& line, bool is_error) {
    bool written = false;
    {
        std::lock_guard<std::mutex> lock(session->write_mutex);
        written = session->channel.write_line(line);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (written) ++stats_.responses;
    if (is_error) ++stats_.errors;
}

std::string QueryServer::render_stats(std::int64_t id) const {
    Stats snapshot;
    engine::PopulationCache::Stats cache;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        snapshot = stats_;
    }
    cache = cache_->stats();
    Json body = Json::object();
    body.set("requests", Json(std::int64_t(snapshot.requests)));
    body.set("responses", Json(std::int64_t(snapshot.responses)));
    body.set("errors", Json(std::int64_t(snapshot.errors)));
    body.set("backend_runs", Json(std::int64_t(snapshot.backend_runs)));
    body.set("coalesced", Json(std::int64_t(snapshot.coalesced)));
    body.set("sweep_cache_hits",
             Json(std::int64_t(snapshot.sweep_cache_hits)));
    body.set("interactive_done",
             Json(std::int64_t(snapshot.interactive_done)));
    body.set("bulk_done", Json(std::int64_t(snapshot.bulk_done)));
    body.set("sessions", Json(std::int64_t(snapshot.sessions)));
    body.set("cache_hits", Json(std::int64_t(cache.hits)));
    body.set("cache_misses", Json(std::int64_t(cache.misses)));
    body.set("cache_evictions", Json(std::int64_t(cache.evictions)));
    body.set("cache_retained_faults",
             Json(std::int64_t(cache.retained_faults)));
    // Per-Want query counts summed over the interactive and bulk engines
    // (they share the population cache reported above, so the cache
    // counters already cover both).
    const engine::Engine::Stats interactive = interactive_engine_->stats();
    const engine::Engine::Stats bulk = bulk_engine_->stats();
    body.set("engine_queries",
             Json(std::int64_t(interactive.queries + bulk.queries)));
    body.set("want_detects", Json(std::int64_t(interactive.want_detects +
                                               bulk.want_detects)));
    body.set("want_detects_all",
             Json(std::int64_t(interactive.want_detects_all +
                               bulk.want_detects_all)));
    body.set("want_traces",
             Json(std::int64_t(interactive.want_traces + bulk.want_traces)));
    body.set("want_sweeps",
             Json(std::int64_t(interactive.want_sweeps + bulk.want_sweeps)));
    Json root = Json::object();
    root.set("id", Json(id));
    root.set("ok", Json(true));
    root.set("stats", std::move(body));
    return root.dump();
}

void QueryServer::handle_line(const std::shared_ptr<Session>& session,
                              const std::string& line) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.requests;
    }
    QueryRequest request;
    try {
        request = parse_request(line);
    } catch (const std::exception& error) {
        reply(session, render_error(salvage_request_id(line), error.what()),
              true);
        return;
    }
    if (request.op == QueryOp::Ping) {
        Json root = Json::object();
        root.set("id", Json(request.id));
        root.set("ok", Json(true));
        root.set("pong", Json(true));
        reply(session, root.dump(), false);
        return;
    }
    if (request.op == QueryOp::Stats) {
        reply(session, render_stats(request.id), false);
        return;
    }

    engine::Query query;
    try {
        query = to_engine_query(request);
    } catch (const std::exception& error) {
        reply(session, render_error(request.id, error.what()), true);
        return;
    }
    const QueryClass klass = classify(request);
    const std::string key = coalesce_key(request, query);

    std::optional<engine::Result> cached_sweep;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
            // Handled outside the lock below via the error path.
        } else if (request.op == QueryOp::Sweep &&
                   sweep_cache_.count(key) != 0) {
            ++stats_.sweep_cache_hits;
            cached_sweep = sweep_cache_.at(key);
        } else if (const auto it = tasks_by_key_.find(key);
                   it != tasks_by_key_.end()) {
            // Coalesce: one backend run answers every identical
            // in-flight request, whatever its session or admission lane.
            ++stats_.coalesced;
            it->second->subscribers.emplace_back(request.id, session);
            return;
        } else {
            auto task = std::make_shared<Task>();
            task->request = request;
            task->query = std::move(query);
            task->key = key;
            task->klass = klass;
            task->subscribers.emplace_back(request.id, session);
            tasks_by_key_.emplace(key, task);
            (klass == QueryClass::Interactive ? interactive_queue_
                                              : bulk_queue_)
                .push_back(std::move(task));
            // notify_all, not notify_one: the waiters are heterogeneous
            // (interactive executors never serve the bulk queue), so a
            // single notification can be swallowed by an executor whose
            // predicate is false and the task would sit queued forever.
            work_cv_.notify_all();
            return;
        }
    }
    if (cached_sweep.has_value()) {
        reply(session, render_result(request.id, *cached_sweep), false);
        return;
    }
    reply(session, render_error(request.id, "server stopped"), true);
}

void QueryServer::executor_loop(QueryClass lane) {
    for (;;) {
        std::shared_ptr<Task> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [&] {
                if (stopping_) return true;
                if (!interactive_queue_.empty() &&
                    (lane == QueryClass::Interactive ||
                     bulk_queue_.empty()))
                    return true;
                return lane == QueryClass::Bulk && !bulk_queue_.empty();
            });
            if (stopping_) return;
            // Interactive executors only ever serve the interactive
            // queue; bulk executors prefer bulk work but drain
            // interactive when idle (work-conserving, never inverted).
            if (lane == QueryClass::Bulk && !bulk_queue_.empty()) {
                task = std::move(bulk_queue_.front());
                bulk_queue_.pop_front();
            } else if (!interactive_queue_.empty()) {
                task = std::move(interactive_queue_.front());
                interactive_queue_.pop_front();
            }
        }
        if (task != nullptr) run_task(task);
    }
}

void QueryServer::run_task(const std::shared_ptr<Task>& task) {
    // The engine follows the task's class, not the executor's lane: an
    // interactive probe picked up by an idle bulk executor still runs on
    // the interactive engine's private pool, so it can never block on a
    // sweep's parallel_for serialisation.
    const engine::Engine& engine = task->klass == QueryClass::Interactive
                                       ? *interactive_engine_
                                       : *bulk_engine_;
    std::optional<engine::Result> result;
    std::string error;
    try {
        result = engine.run(task->query);
    } catch (const std::exception& failure) {
        error = failure.what();
    }
    std::vector<std::pair<std::int64_t, std::shared_ptr<Session>>> subscribers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_by_key_.erase(task->key);
        subscribers.swap(task->subscribers);
        ++stats_.backend_runs;
        ++(task->klass == QueryClass::Interactive ? stats_.interactive_done
                                                  : stats_.bulk_done);
        if (result.has_value() && task->request.op == QueryOp::Sweep &&
            sweep_cache_.count(task->key) == 0) {
            sweep_cache_.emplace(task->key, *result);
            sweep_cache_order_.push_back(task->key);
            while (sweep_cache_order_.size() > kSweepCacheEntries) {
                sweep_cache_.erase(sweep_cache_order_.front());
                sweep_cache_order_.pop_front();
            }
        }
    }
    for (auto& [id, session] : subscribers) {
        if (result.has_value())
            reply(session, render_result(id, *result), false);
        else
            reply(session, render_error(id, error), true);
    }
}

void QueryServer::session_loop(const std::shared_ptr<Session>& session) {
    std::string line;
    for (;;) {
        switch (session->channel.read_line(line, /*timeout_ms=*/-1)) {
            case LineChannel::ReadStatus::Ok: break;
            case LineChannel::ReadStatus::Timeout: continue;  // unreachable
            case LineChannel::ReadStatus::Overflow:
                // Not speaking the protocol; one parting error, then out.
                reply(session, render_error(0, "line too long"), true);
                return;
            case LineChannel::ReadStatus::Closed: return;
        }
        if (line.empty()) continue;
        handle_line(session, line);
    }
}

// ---- QueryClient ----------------------------------------------------------

QueryClient::QueryClient(int fd) : channel_(fd) {}

QueryClient::QueryClient(const std::string& host, std::uint16_t port,
                         int connect_timeout_ms)
    : channel_(tcp_connect(host, port, connect_timeout_ms)) {}

bool QueryClient::send(const QueryRequest& request) {
    return channel_.write_line(render_request(request));
}

std::optional<std::string> QueryClient::read_reply(int timeout_ms) {
    std::string line;
    if (channel_.read_line(line, timeout_ms) != LineChannel::ReadStatus::Ok)
        return std::nullopt;
    return line;
}

std::optional<std::string> QueryClient::roundtrip(const QueryRequest& request,
                                                  int timeout_ms) {
    if (!send(request)) return std::nullopt;
    return read_reply(timeout_ms);
}

}  // namespace mtg::net
