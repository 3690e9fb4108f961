#pragma once

/// \file worker.hpp
/// The fleet worker: answers wire.hpp shard queries over one connection.
///
/// A worker is completely stateless — every query carries the March test,
/// the universe options and the concrete population slice, so the worker
/// just evaluates it through a local PackedBackend (global thread pool,
/// CPUID lane width) and replies. Connections are served sequentially:
/// queries on one connection are answered in arrival order (the
/// coordinator matches replies by id, not by order, so pipelining is
/// legal).
///
/// Every frame carries the CRC32C trailer (framing.hpp), from the first
/// one on. Ping messages are answered with a Pong echoing the nonce at
/// any point; they are not queries (hooks and counters ignore them).
///
/// WorkerHooks exist for the transport's fault-injection tests (and for
/// nothing else): a per-query artificial delay models a straggler, dying
/// after the k-th query models a peer killed mid-query (flap is the same
/// death but the fleet accepts a reconnect afterwards), and replying
/// with garbage / a truncated frame models a corrupted stream. All
/// default off.
///
/// serve_connection() is the single implementation behind both the
/// same-process loopback peers (LoopbackFleet, used by CI) and the
/// march_tool `serve` daemon (one thread per accepted TCP connection).

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mtg::engine {
class Backend;
}  // namespace mtg::engine

namespace mtg::net {

struct WireQuery;
struct WireResult;

/// Test-only failure injection for a worker connection.
struct WorkerHooks {
    int delay_ms{0};  ///< sleep this long before answering each query
    /// Close the connection upon receiving the k-th query (1-based)
    /// WITHOUT replying — a peer killed mid-query. -1 = never.
    int die_after_queries{-1};
    /// Like die_after_queries, but the peer *flaps*: LoopbackFleet keeps
    /// accepting reconnects for it (a revived worker with clean hooks),
    /// so a supervised coordinator can bring it back mid-query. -1 =
    /// never.
    int flap_after_queries{-1};
    /// Reply to the k-th query (1-based) with an undecodable frame, then
    /// close. -1 = never.
    int garbage_after_queries{-1};
    /// Reply to the k-th query (1-based) with a frame whose length prefix
    /// promises more bytes than are sent, then close. -1 = never.
    int truncate_after_queries{-1};
    /// Reply to the k-th query (1-based) with the first bytes of a frame,
    /// then stall for `dribble_stall_ms` before closing — the mid-frame
    /// byte-dribbler the idle-progress bound (FrameChannel::
    /// set_mid_frame_idle_ms) exists for. A receiver with the bound
    /// declares the stream Corrupt as soon as the stall exceeds it; the
    /// pre-PR 9 receiver hung here for the whole stall. -1 = never.
    int dribble_after_queries{-1};
    int dribble_stall_ms{1000};
    /// Frame payload cap for this connection (0 = net::kMaxFrameBytes).
    /// Must match the coordinator's RemoteOptions::max_frame_bytes when
    /// raised — large-word-memory Traces replies exceed the 64 MiB
    /// default. Not test-only, despite the struct's name.
    std::uint32_t max_frame_bytes{0};
    /// When set, incremented for every query this worker *answers* —
    /// lets tests assert a revived peer demonstrably served ranges.
    std::atomic<int>* answered_queries{nullptr};
};

/// Serves one connection until it closes (or a hook fires). Takes
/// ownership of `fd`. Malformed queries get an Error reply and close the
/// connection; evaluation failures get an Error reply and keep serving.
void serve_connection(int fd, const WorkerHooks& hooks = {});

/// Evaluates one decoded shard query on `backend` — the exact evaluation
/// a remote worker performs, exposed so the coordinator's DegradeLocal
/// "peer of last resort" produces bit-identical results by construction.
[[nodiscard]] WireResult evaluate_query(const engine::Backend& backend,
                                        const WireQuery& query);

/// N same-process worker peers, each a thread serving one end of an
/// AF_UNIX socketpair — the loopback transport CI runs the full
/// differential harness over, no real networking involved. The
/// coordinator-side fds are handed out once via take_fds() (the caller —
/// normally make_remote_backend — owns and closes them); worker threads
/// exit when their connection closes and are joined by the destructor.
/// Declare the fleet BEFORE the backend that takes its fds: the backend's
/// destructor closes the connections, which is what lets the join finish.
///
/// reconnector(i) supports the supervised peer lifecycle: it returns a
/// callback (suitable as PeerConfig::connect) that spawns a fresh worker
/// thread for peer i — with `reconnect_hooks` if set, clean hooks
/// otherwise — and hands back the new coordinator-side fd. Each call
/// serves one reconnect; connection_count(i) says how many connections
/// peer i has accepted in total (initial + reconnects).
class LoopbackFleet {
public:
    /// `peer_hooks[i]` configures peer i; peers beyond the vector get
    /// default hooks.
    explicit LoopbackFleet(int peers,
                           std::vector<WorkerHooks> peer_hooks = {});
    ~LoopbackFleet();

    LoopbackFleet(const LoopbackFleet&) = delete;
    LoopbackFleet& operator=(const LoopbackFleet&) = delete;

    /// The coordinator-side fds, one per peer. Callable once; ownership
    /// transfers to the caller.
    [[nodiscard]] std::vector<int> take_fds();

    /// Hooks applied to peer `peer`'s future reconnects (default: clean).
    void set_reconnect_hooks(int peer, WorkerHooks hooks);

    /// A thread-safe reconnect factory for peer `peer`. The returned
    /// callback may outlive intermediate connections but NOT the fleet.
    [[nodiscard]] std::function<int()> reconnector(int peer);

    /// Connections peer `peer` has accepted so far (1 after construction).
    [[nodiscard]] int connection_count(int peer) const;

    /// Queries peer `peer` has answered across all its connections.
    /// (Counted through an injected WorkerHooks::answered_queries unless
    /// the caller supplied their own counter, which takes precedence.)
    [[nodiscard]] int queries_answered(int peer) const;

private:
    mutable std::mutex mutex_;
    std::vector<int> coordinator_fds_;
    std::vector<std::thread> workers_;
    std::vector<WorkerHooks> reconnect_hooks_;
    std::vector<int> connection_counts_;
    std::vector<std::unique_ptr<std::atomic<int>>> answered_;
};

}  // namespace mtg::net
