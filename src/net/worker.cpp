#include "net/worker.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <exception>
#include <utility>

#include "engine/backend.hpp"
#include "net/framing.hpp"
#include "net/wire.hpp"
#include "util/contracts.hpp"

namespace mtg::net {

WireResult evaluate_query(const engine::Backend& backend,
                          const WireQuery& query) {
    WireResult result;
    result.id = query.id;
    result.want = query.want;
    result.range_begin = query.range_begin;
    result.range_end = query.range_end;
    const engine::WordContext ctx{query.test, query.backgrounds, query.opts,
                                  nullptr, 0};
    switch (query.want) {
        case WantTag::Detects:
            result.verdicts = backend.detects(ctx, query.faults);
            break;
        case WantTag::DetectsAll:
            result.all = backend.detects_all(ctx, query.faults);
            break;
        case WantTag::Traces:
            result.traces = backend.traces(ctx, query.faults);
            break;
    }
    return result;
}

void serve_connection(int fd, const WorkerHooks& hooks) {
    FrameChannel channel(fd);
    channel.set_max_frame_bytes(hooks.max_frame_bytes);
    const std::unique_ptr<engine::Backend> backend =
        engine::make_packed_backend();
    std::vector<std::uint8_t> payload;
    int queries = 0;
    for (;;) {
        const FrameChannel::RecvStatus status =
            channel.recv(payload, /*timeout_ms=*/-1);
        if (status != FrameChannel::RecvStatus::Ok) return;

        Message message;
        try {
            message = decode_message(payload);
        } catch (const WireFormatError& e) {
            // An unframeable query stream cannot be answered reliably:
            // report and drop the connection.
            (void)channel.send(encode_error({0, e.what()}));
            return;
        }

        // Heartbeat traffic is not a query: no hooks, no counters.
        if (message.type == MessageType::Ping) {
            if (!channel.send(encode_pong({message.ping.nonce}))) return;
            continue;
        }
        if (message.type != MessageType::Query) {
            (void)channel.send(
                encode_error({0, "expected a Query message"}));
            return;
        }

        ++queries;
        if ((hooks.die_after_queries >= 0 &&
             queries >= hooks.die_after_queries) ||
            (hooks.flap_after_queries >= 0 &&
             queries >= hooks.flap_after_queries))
            return;  // killed mid-query: no reply, connection closes
        if (hooks.delay_ms > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(hooks.delay_ms));
        if (hooks.garbage_after_queries >= 0 &&
            queries >= hooks.garbage_after_queries) {
            // A syntactically framed but semantically undecodable reply.
            const std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe,
                                                       0xef, 0x00, 0x01};
            (void)channel.send(garbage);
            return;
        }
        if (hooks.dribble_after_queries >= 0 &&
            queries >= hooks.dribble_after_queries) {
            // Start a plausible frame (length prefix promising 64 bytes,
            // two payload bytes), stall mid-payload, then close — a peer
            // that wedges while replying instead of dying cleanly.
            const std::vector<std::uint8_t> partial = {64, 0, 0, 0, 0x01,
                                                       0x02};
            std::size_t sent = 0;
            while (sent < partial.size()) {
                const ssize_t wrote =
                    ::send(channel.fd(), partial.data() + sent,
                           partial.size() - sent, MSG_NOSIGNAL);
                if (wrote <= 0) break;
                sent += static_cast<std::size_t>(wrote);
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(hooks.dribble_stall_ms));
            return;
        }
        if (hooks.truncate_after_queries >= 0 &&
            queries >= hooks.truncate_after_queries) {
            // Length prefix promising 64 bytes, connection closed after 2.
            const std::vector<std::uint8_t> truncated = {64, 0, 0, 0, 0x01,
                                                         0x02};
            std::size_t sent = 0;
            while (sent < truncated.size()) {
                const ssize_t wrote =
                    ::send(channel.fd(), truncated.data() + sent,
                           truncated.size() - sent, MSG_NOSIGNAL);
                if (wrote <= 0) break;
                sent += static_cast<std::size_t>(wrote);
            }
            return;
        }

        std::vector<std::uint8_t> reply;
        try {
            reply = encode_result(evaluate_query(*backend, message.query));
        } catch (const std::exception& e) {
            reply = encode_error({message.query.id, e.what()});
        }
        if (!channel.send(reply)) return;
        if (hooks.answered_queries != nullptr)
            hooks.answered_queries->fetch_add(1, std::memory_order_relaxed);
    }
}

LoopbackFleet::LoopbackFleet(int peers, std::vector<WorkerHooks> peer_hooks) {
    coordinator_fds_.reserve(static_cast<std::size_t>(peers));
    workers_.reserve(static_cast<std::size_t>(peers));
    reconnect_hooks_.resize(static_cast<std::size_t>(peers));
    connection_counts_.assign(static_cast<std::size_t>(peers), 1);
    answered_.reserve(static_cast<std::size_t>(peers));
    for (int i = 0; i < peers; ++i)
        answered_.push_back(std::make_unique<std::atomic<int>>(0));
    for (int i = 0; i < peers; ++i) {
        const auto [coordinator_fd, worker_fd] = socket_pair();
        coordinator_fds_.push_back(coordinator_fd);
        WorkerHooks hooks = static_cast<std::size_t>(i) < peer_hooks.size()
                                ? peer_hooks[static_cast<std::size_t>(i)]
                                : WorkerHooks{};
        if (hooks.answered_queries == nullptr)
            hooks.answered_queries =
                answered_[static_cast<std::size_t>(i)].get();
        workers_.emplace_back(
            [worker_fd, hooks] { serve_connection(worker_fd, hooks); });
    }
}

LoopbackFleet::~LoopbackFleet() {
    // Any fds not taken by a coordinator are closed here, which unblocks
    // the matching workers; taken fds are closed by their FrameChannels.
    std::vector<int> fds;
    std::vector<std::thread> workers;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        fds = std::move(coordinator_fds_);
        workers = std::move(workers_);
    }
    for (const int fd : fds)
        if (fd >= 0) ::shutdown(fd, SHUT_RDWR), ::close(fd);
    for (std::thread& worker : workers)
        if (worker.joinable()) worker.join();
}

std::vector<int> LoopbackFleet::take_fds() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<int> fds = std::move(coordinator_fds_);
    coordinator_fds_.assign(fds.size(), -1);
    return fds;
}

void LoopbackFleet::set_reconnect_hooks(int peer, WorkerHooks hooks) {
    const std::lock_guard<std::mutex> lock(mutex_);
    reconnect_hooks_.at(static_cast<std::size_t>(peer)) = hooks;
}

std::function<int()> LoopbackFleet::reconnector(int peer) {
    MTG_EXPECTS(peer >= 0 &&
                static_cast<std::size_t>(peer) < reconnect_hooks_.size());
    return [this, peer] {
        const auto [coordinator_fd, worker_fd] = socket_pair();
        const std::lock_guard<std::mutex> lock(mutex_);
        WorkerHooks hooks =
            reconnect_hooks_[static_cast<std::size_t>(peer)];
        if (hooks.answered_queries == nullptr)
            hooks.answered_queries =
                answered_[static_cast<std::size_t>(peer)].get();
        workers_.emplace_back(
            [worker_fd, hooks] { serve_connection(worker_fd, hooks); });
        ++connection_counts_[static_cast<std::size_t>(peer)];
        return coordinator_fd;
    };
}

int LoopbackFleet::connection_count(int peer) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return connection_counts_.at(static_cast<std::size_t>(peer));
}

int LoopbackFleet::queries_answered(int peer) const {
    return answered_.at(static_cast<std::size_t>(peer))
        ->load(std::memory_order_relaxed);
}

}  // namespace mtg::net
