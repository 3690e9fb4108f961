#pragma once

/// \file remote_backend.hpp
/// engine::RemoteBackend — the third Backend: fault simulation sharded
/// across a *supervised* fleet of worker peers over sockets.
///
/// The coordinator splits every population into contiguous ranges aligned
/// to whole 504-lane W=8 blocks (engine::shard_ranges), ships each range
/// as a wire.hpp Query to a peer, and merges the replies: per-fault
/// verdicts and traces concatenate by range position, the all-detected
/// verdict ANDs (with early exit — an escaping range marks the remaining
/// ones moot). Every query crosses the fleet as a word query: a bit query
/// is shipped as its width-1 word view (word::BitView) and its traces
/// are mapped back with word::bit_trace, so there is one scatter-and-merge
/// path per Want.
///
/// Peer lifecycle — every peer runs the state machine
///
///     Alive ──(pong overdue)──► Suspect ──(pong older still)──► Dead
///       ▲  ◄──(pong arrives)──────┘                              │
///       │                                                        ▼
///       └──(connect succeeds)──────────────────────────── Reconnecting
///
/// driven by a supervisor thread: Ping/Pong heartbeats age peers into
/// Suspect (no new dispatches; in-flight replies still accepted) and
/// Dead (connection closed, owing ranges requeued); Dead peers with a
/// connect factory enter Reconnecting on a capped exponential backoff
/// with deterministic seeded jitter, and a revived peer rejoins range
/// scheduling mid-query. Receiver errors (closed/corrupt/garbage frames)
/// short-circuit straight to Dead. A fresh connection is Alive at once,
/// so a peer that drops it before answering anything dies through its
/// receiver like one dying mid-query; such a connection counts as a
/// failed attempt, and its next redial waits out the backoff.
///
/// Fault tolerance during a query:
///   - Straggler re-dispatch: a range in flight longer than
///     `straggler_timeout_ms` becomes eligible for dispatch to a second
///     idle peer. Results are deterministic, so either copy is correct:
///     duplicate replies resolve first-wins and the loser is dropped.
///     The slow peer is NOT killed — if it answers eventually (even
///     during a later query), its reply is matched by id and discarded
///     when stale.
///   - Deadline budgets: a query older than `query_deadline_ms` stops
///     waiting on the fleet; what happens to its unanswered ranges is the
///     DegradePolicy's call.
///   - Graceful local degradation: with DegradePolicy::DegradeLocal the
///     coordinator routes pending/orphaned ranges through a local
///     PackedBackend "peer of last resort" — the same evaluate_query a
///     worker runs, so results stay bit-identical by construction — when
///     every peer is dead beyond revival or the deadline has passed.
///     FailFast preserves the PR 6 behaviour: throw.
///
/// One execute runs at a time (Backend::const methods serialize on an
/// internal mutex); each peer connection gets a persistent receiver
/// thread that routes replies by query id, so a reply from a past
/// re-dispatched query can never desynchronize the stream.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "engine/backend.hpp"

namespace mtg::engine {

/// What to do with ranges the fleet cannot answer (all peers dead beyond
/// revival, or the query deadline exhausted).
enum class DegradePolicy {
    FailFast,      ///< throw std::runtime_error (the PR 6 behaviour)
    DegradeLocal,  ///< evaluate locally on a PackedBackend, bit-identical
};

/// Coordinator policy knobs.
struct RemoteOptions {
    /// Age after which an in-flight range may be duplicated onto another
    /// idle peer.
    int straggler_timeout_ms{1000};
    /// Wall-clock budget for one query; past it, unanswered ranges fall
    /// to the DegradePolicy. 0 = unlimited.
    int query_deadline_ms{0};
    DegradePolicy degrade{DegradePolicy::FailFast};
    /// Heartbeat cadence: a Ping goes to every Alive/Suspect peer this
    /// often, and pong age drives the lifecycle below. 0 disables
    /// heartbeats (peers die only on receiver errors).
    int heartbeat_interval_ms{500};
    int suspect_after_ms{1500};  ///< pong older than this → Suspect
    int dead_after_ms{3000};     ///< pong older than this → Dead
    /// Reconnect backoff: attempt k waits
    /// min(backoff_ms << k, backoff_max_ms) plus deterministic jitter
    /// from `backoff_seed` (SplitMix64 — no wall-clock randomness, so
    /// chaos schedules replay exactly).
    int reconnect_backoff_ms{50};
    int reconnect_backoff_max_ms{2000};
    std::uint64_t backoff_seed{1};
    /// Frame payload cap applied to every peer channel (0 = the default
    /// net::kMaxFrameBytes, 64 MiB). Raise it when Traces /
    /// DictionarySweep replies for large word memories exceed the
    /// default — the serving workers must raise WorkerHooks::
    /// max_frame_bytes to match, or their sends fail and the peers die.
    /// Oversized length prefixes beyond the configured cap are still
    /// rejected as Corrupt.
    std::uint32_t max_frame_bytes{0};
    /// Mid-frame idle-progress bound applied to every peer channel
    /// (FrameChannel::set_mid_frame_idle_ms): 0 keeps the 30 s default;
    /// must not be negative. The chaos harness shrinks this so a
    /// byte-dribbling peer is declared Corrupt (and its ranges
    /// re-dispatched) quickly instead of wedging the receiver.
    int mid_frame_idle_ms{0};
};

/// One peer: an already-connected socket, a factory to (re)establish the
/// connection, or both. With only `fd`, the peer is dead for good once
/// its connection fails (the PR 6 behaviour). With `connect`, the
/// supervisor revives it on backoff — `fd < 0` means the first
/// connection is made by the supervisor too.
struct PeerConfig {
    int fd{-1};
    std::function<int()> connect;
};

/// Builds a RemoteBackend over connected peer sockets (ownership of the
/// fds transfers). Peers normally come from net::LoopbackFleet::take_fds()
/// (same-process CI fleet) or net::tcp_connect (march_tool fleet).
[[nodiscard]] std::unique_ptr<Backend> make_remote_backend(
    std::vector<int> peer_fds, const RemoteOptions& options = {});

/// Same, from full peer configs (reconnect factories enabled).
[[nodiscard]] std::unique_ptr<Backend> make_remote_backend(
    std::vector<PeerConfig> peers, const RemoteOptions& options = {});

}  // namespace mtg::engine
