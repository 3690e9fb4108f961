#pragma once

/// \file query_server.hpp
/// The persistent query server: one long-lived Engine pair behind the
/// line-JSON protocol (query_protocol.hpp), serving concurrent client
/// sessions over real sockets or in-process socketpairs.
///
/// Why a server at all: every march_tool invocation used to pay the full
/// session warm-up — population expansion, dictionary sweeps — and throw
/// it away on exit. The server keeps those hot: both engines share ONE
/// PopulationCache (a kind expansion missed by an interactive probe warms
/// the next bulk sweep and vice versa), and finished DictionarySweep
/// results are retained in a bounded sweep cache so a second session
/// asking for the same dictionary gets it without a backend run.
///
/// Admission has two priority classes. Interactive requests (detects /
/// detects_all, plus stats and ping which never queue) are executed by a
/// reserved lane of executor threads driving an Engine on its own small
/// thread pool; bulk requests (traces / sweep) run on separate executors
/// driving an Engine on the process-wide pool. The split is what bounds
/// interactive latency: ThreadPool serialises concurrent parallel_for
/// callers, so a multi-second DictionarySweep on the global pool would
/// otherwise gate every probe behind it. Bulk executors are
/// work-conserving — when their queue is empty they drain interactive
/// work (still on the interactive engine) — but never the reverse.
///
/// Identical in-flight queries coalesce at admission: a request whose
/// coalesce_key matches a queued or running task is attached to that
/// task as an extra subscriber and consumes no executor. The key is
/// built from the *resolved* query (canonical test text, universe
/// dimensions, canonical kinds), so permuted kind lists and alternative
/// test spellings collapse too.
///
/// Re-entrancy ground truth: both Engines are shared by all executor
/// threads with no external locking — exactly the contract
/// engine.hpp promises and tests/engine_hammer_test.cpp enforces under
/// TSan.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "net/query_protocol.hpp"
#include "util/thread_pool.hpp"

namespace mtg::net {

struct QueryServerOptions {
    /// Reserved interactive executor threads (>= 1).
    int interactive_executors{2};
    /// Bulk executor threads (>= 1); work-conserving.
    int bulk_executors{2};
    /// Shared population cache; nullptr = the server builds its own with
    /// the default budget (which the two engines still share).
    std::shared_ptr<engine::PopulationCache> cache;
};

/// The server. Construction starts the executor threads; sessions are
/// added with serve_fd() (an adopted connected socket — TCP or one end
/// of a socketpair) or by listen() + an internal accept loop. stop()
/// (idempotent, also run by the destructor) closes every session,
/// answers queued work with an error, and joins all threads.
class QueryServer {
public:
    explicit QueryServer(QueryServerOptions options = {});
    ~QueryServer();

    QueryServer(const QueryServer&) = delete;
    QueryServer& operator=(const QueryServer&) = delete;

    /// Adopts a connected stream socket as a client session. Safe from
    /// any thread while the server is running.
    void serve_fd(int fd);

    /// Binds and listens on `port` (0 = ephemeral) and starts the accept
    /// loop. Returns the bound port.
    std::uint16_t listen(std::uint16_t port);
    [[nodiscard]] std::uint16_t port() const { return port_; }

    /// Stops accepting, wakes every session and executor, fails queued
    /// tasks, joins all threads. Idempotent.
    void stop();

    struct Stats {
        std::size_t requests{0};        ///< decoded request lines
        std::size_t responses{0};       ///< reply lines written
        std::size_t errors{0};          ///< "ok": false replies
        std::size_t backend_runs{0};    ///< Engine::run invocations
        std::size_t coalesced{0};       ///< requests attached to in-flight runs
        std::size_t sweep_cache_hits{0};
        std::size_t interactive_done{0};
        std::size_t bulk_done{0};
        std::size_t sessions{0};        ///< sessions ever admitted
    };
    [[nodiscard]] Stats stats() const;

    /// The shared population cache (for tests asserting cross-session
    /// warming).
    [[nodiscard]] const std::shared_ptr<engine::PopulationCache>&
    population_cache() const {
        return cache_;
    }

private:
    struct Session;
    struct Task;

    QueryServerOptions options_;
    std::shared_ptr<engine::PopulationCache> cache_;
    std::unique_ptr<util::ThreadPool> interactive_pool_;
    std::unique_ptr<engine::Engine> interactive_engine_;
    std::unique_ptr<engine::Engine> bulk_engine_;

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;
    bool stopping_{false};
    std::deque<std::shared_ptr<Task>> interactive_queue_;
    std::deque<std::shared_ptr<Task>> bulk_queue_;
    std::map<std::string, std::shared_ptr<Task>> tasks_by_key_;
    std::map<std::string, engine::Result> sweep_cache_;
    std::deque<std::string> sweep_cache_order_;
    Stats stats_;

    std::vector<std::thread> executors_;
    std::vector<std::shared_ptr<Session>> sessions_;
    std::vector<std::thread> session_threads_;
    std::thread accept_thread_;
    int listen_fd_{-1};
    std::uint16_t port_{0};

    void executor_loop(QueryClass lane);
    void session_loop(const std::shared_ptr<Session>& session);
    void accept_loop();
    void handle_line(const std::shared_ptr<Session>& session,
                     const std::string& line);
    void run_task(const std::shared_ptr<Task>& task);
    void reply(const std::shared_ptr<Session>& session,
               const std::string& line, bool is_error);
    [[nodiscard]] std::string render_stats(std::int64_t id) const;
};

/// A client of the server: connects (or adopts an fd), sends requests,
/// reads replies. Replies arrive in completion order, not send order —
/// match by id when pipelining.
class QueryClient {
public:
    /// Adopts a connected fd (e.g. one end of net::socket_pair()).
    explicit QueryClient(int fd);
    QueryClient(const std::string& host, std::uint16_t port,
                int connect_timeout_ms = 5000);

    /// Sends one request line. False when the connection is dead.
    [[nodiscard]] bool send(const QueryRequest& request);

    /// Reads one reply line. nullopt on timeout or closed connection.
    [[nodiscard]] std::optional<std::string> read_reply(int timeout_ms = -1);

    /// send() + read_reply() for the single-outstanding case.
    [[nodiscard]] std::optional<std::string> roundtrip(
        const QueryRequest& request, int timeout_ms = -1);

    void shutdown() { channel_.shutdown(); }

private:
    LineChannel channel_;
};

}  // namespace mtg::net
