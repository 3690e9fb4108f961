#pragma once

/// \file framing.hpp
/// Length-prefixed framing over stream sockets, plus the few socket
/// helpers the transport needs (AF_UNIX socketpairs for same-process
/// loopback peers, TCP listen/accept/connect for real multi-process
/// fleets).
///
/// Two frame formats exist, negotiated per connection by the wire-level
/// Hello exchange (see wire.hpp):
///
///   v1:  [u32 length (LE)][length payload bytes]
///   v2:  [u32 length (LE)][length payload bytes][u32 CRC32C (LE)]
///
/// The v2 trailer is the CRC32C of the payload bytes, so garbage on the
/// stream is caught at the frame layer (RecvStatus::Corrupt) before the
/// strict payload decoder runs. The length prefix counts payload bytes
/// only in both formats. A channel starts in v1 (Hello frames always
/// travel as v1); set_frame_version(2) switches both directions once the
/// exchange settles.
///
/// Frames are bounded so a garbage length prefix is rejected as Corrupt
/// instead of driving a giant allocation. The bound defaults to
/// kMaxFrameBytes (64 MiB) and is per-channel configurable
/// (set_max_frame_bytes) because Traces / DictionarySweep replies for
/// large word memories can legitimately exceed 64 MiB — both ends of a
/// connection must agree on the raised cap (RemoteOptions::
/// max_frame_bytes on the coordinator, WorkerHooks::max_frame_bytes on
/// the worker). recv()
/// distinguishes the four outcomes the coordinator's fault-tolerance
/// logic needs: a complete frame, a timeout with no frame started (the
/// peer is merely slow), an orderly or errored close, and a corrupt
/// stream (oversized frame, CRC mismatch, or a connection that died
/// mid-frame — a truncated frame can never be resynchronized, so the
/// channel is unusable afterwards).
///
/// FrameChannel is full-duplex: one thread may send while another
/// blocks in recv (the coordinator's dispatcher/receiver split). Two
/// threads must not call recv — or send — concurrently.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace mtg::net {

/// Default upper bound on a frame payload (64 MiB) — far above any shard
/// query we ship, far below a believable-garbage u32 length.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Default idle-progress bound for mid-frame reads (30 s). Once a frame
/// has started arriving, each further byte must land within this window
/// or the stream is declared Corrupt — a byte-dribbling (or silently
/// wedged) peer can no longer hold a receiver forever on a frame it never
/// finishes. Healthy peers write whole frames in a handful of syscalls,
/// so the bound only ever fires on a pathological stream.
inline constexpr int kDefaultMidFrameIdleMs = 30000;

/// A stream socket speaking length-prefixed frames. Owns the fd.
class FrameChannel {
public:
    explicit FrameChannel(int fd);
    ~FrameChannel();

    FrameChannel(FrameChannel&& other) noexcept;
    FrameChannel& operator=(FrameChannel&& other) noexcept;
    FrameChannel(const FrameChannel&) = delete;
    FrameChannel& operator=(const FrameChannel&) = delete;

    enum class RecvStatus {
        Ok,       ///< one complete frame delivered
        Timeout,  ///< deadline passed before a frame *started* arriving
        Closed,   ///< orderly EOF or connection error between frames
        Corrupt,  ///< oversized length, CRC mismatch, or EOF/error mid-frame
    };

    /// Sends one frame. Returns false when the connection is dead.
    [[nodiscard]] bool send(std::span<const std::uint8_t> payload);

    /// Receives one frame into `payload`. `timeout_ms < 0` blocks
    /// indefinitely (until a frame, close, or shutdown()) — the timeout
    /// only governs waiting *between* frames. Once a frame's length
    /// prefix has started arriving, the frame is read to completion, but
    /// each successive byte must arrive within the mid-frame idle bound
    /// (set_mid_frame_idle_ms): a stalled mid-frame stream is Corrupt,
    /// never Timeout, because it cannot resync — and, since PR 9, it can
    /// no longer hold the receiver past any deadline budget either.
    [[nodiscard]] RecvStatus recv(std::vector<std::uint8_t>& payload,
                                  int timeout_ms);

    /// Wakes a blocked recv()/send() from another thread; they return
    /// Closed / false. Safe to call repeatedly.
    void shutdown();

    /// Switches the frame format (1 = bare, 2 = CRC32C trailer) for both
    /// send and recv. Call only between frames, after the wire Hello
    /// exchange has settled on a version.
    void set_frame_version(int version);
    [[nodiscard]] int frame_version() const { return frame_version_; }

    /// Raises (or lowers) this channel's frame payload bound for both
    /// directions; 0 restores the kMaxFrameBytes default. A received
    /// length prefix beyond the bound is still RecvStatus::Corrupt, and
    /// send() still refuses oversize payloads — the cap moves, the
    /// enforcement doesn't.
    void set_max_frame_bytes(std::uint32_t max_bytes);
    [[nodiscard]] std::uint32_t max_frame_bytes() const {
        return max_frame_bytes_;
    }

    /// Sets the idle-progress bound for mid-frame reads: once a frame has
    /// started, recv() declares the stream Corrupt when no byte arrives
    /// for `idle_ms` milliseconds. 0 restores kDefaultMidFrameIdleMs;
    /// negative disables the bound (the pre-PR 9 infinite wait, kept only
    /// for tests that need a wedgeable channel). Progress resets the
    /// window, so a slow-but-advancing peer is never cut off.
    void set_mid_frame_idle_ms(int idle_ms);
    [[nodiscard]] int mid_frame_idle_ms() const { return mid_frame_idle_ms_; }

    [[nodiscard]] int fd() const { return fd_; }
    [[nodiscard]] bool valid() const { return fd_ >= 0; }

private:
    int fd_{-1};
    int frame_version_{1};
    std::uint32_t max_frame_bytes_{kMaxFrameBytes};
    int mid_frame_idle_ms_{kDefaultMidFrameIdleMs};

    enum class IoStatus { Ok, Timeout, Closed, Stalled };
    [[nodiscard]] IoStatus read_exact(std::uint8_t* out, std::size_t n,
                                      int timeout_ms, bool started);
};

/// A connected AF_UNIX stream socketpair — the loopback transport.
[[nodiscard]] std::pair<int, int> socket_pair();

/// TCP helpers for the march_tool serve / fleet verbs. All throw
/// std::runtime_error on failure.
[[nodiscard]] int tcp_listen(std::uint16_t port);
[[nodiscard]] int tcp_accept(int listen_fd);

/// Turns Nagle's algorithm off on a connected TCP socket: every
/// accepted and connected fd gets it, so a small reply or request line
/// leaves at once instead of waiting for the peer's delayed ACK.
void set_tcp_nodelay(int fd);

/// Connects with a bounded wait: the socket is put in non-blocking mode,
/// the connect is raced against poll(), and the fd is restored to
/// blocking before it is returned. `timeout_ms < 0` waits indefinitely
/// (the pre-supervision behaviour); a blackholed host can no longer hang
/// the caller for the OS default of minutes. Throws on failure or
/// timeout. Retry-with-backoff belongs to the caller (the RemoteBackend
/// reconnect path), not here.
[[nodiscard]] int tcp_connect(const std::string& host, std::uint16_t port,
                              int timeout_ms = -1);

}  // namespace mtg::net
