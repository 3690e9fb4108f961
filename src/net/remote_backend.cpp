#include "net/remote_backend.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/framing.hpp"
#include "net/wire.hpp"
#include "net/worker.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace mtg::engine {

namespace {

using net::FrameChannel;
using net::Message;
using net::MessageType;
using net::WantTag;
using net::WireQuery;
using net::WireResult;
using steady = std::chrono::steady_clock;

/// How often the dispatcher re-checks straggler ages / peer deaths while
/// waiting for replies, and the supervisor's scheduling granularity.
constexpr auto kDispatchTick = std::chrono::milliseconds(20);
constexpr auto kSupervisorTick = std::chrono::milliseconds(20);

/// Ranges per live peer a population splits into: more ranges give finer
/// re-dispatch and better balance at more framing overhead. The shard
/// count is capped by the number of 504-lane blocks.
constexpr int kRangesPerPeer = 2;

/// The peer lifecycle (see remote_backend.hpp for the diagram). Suspect
/// peers get no new dispatches but their in-flight replies still count;
/// Reconnecting marks an attempt in progress on the supervisor thread.
enum class PeerPhase { Alive, Suspect, Dead, Reconnecting };

class RemoteBackend final : public Backend {
public:
    RemoteBackend(std::vector<PeerConfig> configs,
                  const RemoteOptions& options)
        : options_(options), backoff_rng_(options.backoff_seed) {
        MTG_EXPECTS(!configs.empty());
        MTG_EXPECTS(options.straggler_timeout_ms >= 1);
        MTG_EXPECTS(options.heartbeat_interval_ms >= 0);
        MTG_EXPECTS(options.suspect_after_ms >= 1);
        MTG_EXPECTS(options.dead_after_ms >= options.suspect_after_ms);
        MTG_EXPECTS(options.reconnect_backoff_ms >= 1);
        MTG_EXPECTS(options.reconnect_backoff_max_ms >=
                    options.reconnect_backoff_ms);
        MTG_EXPECTS(options.mid_frame_idle_ms >= 0);
        const auto now = steady::now();
        peers_.reserve(configs.size());
        for (PeerConfig& config : configs) {
            auto peer = std::make_unique<PeerState>();
            peer->connect_fn = std::move(config.connect);
            peer->next_attempt = now;
            if (config.fd >= 0) {
                peer->channel = open_channel(config.fd);
                peer->phase = PeerPhase::Alive;
                peer->last_pong = now;
                peer->last_ping = now;
            }
            peers_.push_back(std::move(peer));
        }
        for (std::size_t p = 0; p < peers_.size(); ++p) {
            PeerState& peer = *peers_[p];
            if (peer.channel != nullptr)
                peer.receiver = std::thread(
                    [this, p, channel = peer.channel] {
                        receiver_loop(p, /*generation=*/0, channel);
                    });
        }
        supervisor_ = std::thread([this] { supervisor_loop(); });
    }

    ~RemoteBackend() override {
        stop_.store(true, std::memory_order_relaxed);
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            for (const auto& peer : peers_)
                if (peer->channel) peer->channel->shutdown();
        }
        if (supervisor_.joinable()) supervisor_.join();
        // The supervisor is gone, so no new connections or receivers can
        // appear; shut down anything it created after the first pass.
        for (const auto& peer : peers_)
            if (peer->channel) peer->channel->shutdown();
        for (const auto& peer : peers_)
            if (peer->receiver.joinable()) peer->receiver.join();
    }

    [[nodiscard]] const char* name() const override { return "remote"; }

    // ------------------------------------------------------ bit universe --
    // A bit query crosses the fleet as its width-1 word view
    // (word::BitView); its trace replies map back through word::bit_trace.

    [[nodiscard]] std::vector<bool> detects(
        const BitContext& ctx,
        std::span<const sim::InjectedFault> population) const override {
        const word::BitView& view = thread_bit_view(ctx, population);
        return detects(word_context(ctx, view), view.faults);
    }

    [[nodiscard]] bool detects_all(
        const BitContext& ctx,
        std::span<const sim::InjectedFault> population) const override {
        const word::BitView& view = thread_bit_view(ctx, population);
        return detects_all(word_context(ctx, view), view.faults);
    }

    [[nodiscard]] std::vector<sim::RunTrace> traces(
        const BitContext& ctx,
        std::span<const sim::InjectedFault> population) const override {
        const word::BitView& view = thread_bit_view(ctx, population);
        return word::bit_trace(traces(word_context(ctx, view), view.faults));
    }

    // ----------------------------------------------------- word universe --

    [[nodiscard]] std::vector<bool> detects(
        const WordContext& ctx,
        std::span<const word::InjectedBitFault> population) const override {
        const auto results = execute(WantTag::Detects, ctx, population);
        std::vector<bool> merged;
        merged.reserve(population.size());
        for (const WireResult& result : results)
            merged.insert(merged.end(), result.verdicts.begin(),
                          result.verdicts.end());
        MTG_ENSURES(merged.size() == population.size());
        return merged;
    }

    [[nodiscard]] bool detects_all(
        const WordContext& ctx,
        std::span<const word::InjectedBitFault> population) const override {
        for (const WireResult& result :
             execute(WantTag::DetectsAll, ctx, population))
            if (!result.all) return false;
        return true;
    }

    [[nodiscard]] std::vector<word::WordRunTrace> traces(
        const WordContext& ctx,
        std::span<const word::InjectedBitFault> population) const override {
        auto results = execute(WantTag::Traces, ctx, population);
        std::vector<word::WordRunTrace> merged;
        merged.reserve(population.size());
        for (WireResult& result : results)
            for (word::WordRunTrace& trace : result.traces)
                merged.push_back(std::move(trace));
        return merged;
    }

private:
    struct PeerState {
        std::function<int()> connect_fn;  ///< empty = dead is final
        /// Shared so senders can hold the connection across a concurrent
        /// replacement; replaced only under mutex_.
        std::shared_ptr<FrameChannel> channel;
        std::thread receiver;  ///< touched only by ctor/supervisor/dtor
        /// Serializes frame *writes* (dispatcher queries vs supervisor
        /// pings) on one connection; never held together with mutex_.
        std::mutex send_mutex;
        PeerPhase phase{PeerPhase::Dead};
        /// Bumped per connection; stale receivers and send failures from
        /// an earlier connection must not touch the current one.
        std::uint64_t generation{0};
        int outstanding{0};  ///< queries sent, replies not yet routed
        steady::time_point last_pong{};
        steady::time_point last_ping{};
        /// Consecutive failed attempts: refused connects plus
        /// connections that died before answering a single frame.
        int backoff_attempt{0};
        bool answered{false};  ///< the current connection sent a frame
        steady::time_point next_attempt{};
    };

    /// One range's lifecycle within an execute() call.
    struct Task {
        std::uint64_t id{0};
        std::size_t begin{0};
        std::size_t end{0};
        WantTag want{WantTag::Detects};
        std::vector<std::uint8_t> payload;  ///< encoded query, re-sendable
        bool done{false};
        std::vector<std::size_t> owing;  ///< peers owing a reply
        steady::time_point last_dispatch{};
        WireResult result;
    };

    RemoteOptions options_;
    mutable std::vector<std::unique_ptr<PeerState>> peers_;
    std::thread supervisor_;
    std::atomic<bool> stop_{false};

    mutable std::mutex exec_mutex_;  ///< one execute() at a time
    mutable std::mutex mutex_;       ///< peers / tasks / ids
    mutable std::condition_variable cv_;
    mutable std::uint64_t next_id_{1};
    mutable std::uint64_t ping_nonce_{0};
    mutable std::unordered_map<std::uint64_t, Task*> task_index_;
    mutable SplitMix64 backoff_rng_;  ///< under mutex_
    /// The DegradeLocal peer of last resort, built on first use. Guarded
    /// by exec_mutex_ (only the dispatcher touches it).
    mutable std::unique_ptr<Backend> local_;

    /// Wraps a fresh connection with this coordinator's frame bounds.
    [[nodiscard]] std::shared_ptr<FrameChannel> open_channel(int fd) const {
        auto channel = std::make_shared<FrameChannel>(fd);
        channel->set_max_frame_bytes(options_.max_frame_bytes);
        channel->set_mid_frame_idle_ms(options_.mid_frame_idle_ms);
        return channel;
    }

    // ----------------------------------------------------- receiver side --

    void receiver_loop(std::size_t peer_index, std::uint64_t generation,
                       std::shared_ptr<FrameChannel> channel) const {
        std::vector<std::uint8_t> payload;
        for (;;) {
            const FrameChannel::RecvStatus status =
                channel->recv(payload, /*timeout_ms=*/100);
            if (stop_.load(std::memory_order_relaxed)) return;
            switch (status) {
                case FrameChannel::RecvStatus::Timeout: continue;
                case FrameChannel::RecvStatus::Ok:
                    if (!handle_frame(peer_index, generation, payload)) {
                        mark_dead(peer_index, generation);
                        return;
                    }
                    continue;
                case FrameChannel::RecvStatus::Closed:
                case FrameChannel::RecvStatus::Corrupt:
                    mark_dead(peer_index, generation);
                    return;
            }
        }
    }

    /// Routes one frame from a peer. False = the connection is unusable
    /// (undecodable frame, protocol violation, worker-side error).
    [[nodiscard]] bool handle_frame(
        std::size_t peer_index, std::uint64_t generation,
        const std::vector<std::uint8_t>& payload) const {
        Message message;
        try {
            message = net::decode_message(payload);
        } catch (const net::WireFormatError&) {
            return false;
        }
        if (message.type != MessageType::Result &&
            message.type != MessageType::Pong)
            return false;  // worker Error reply == dead peer: re-dispatch

        const std::lock_guard<std::mutex> lock(mutex_);
        PeerState& peer = *peers_[peer_index];
        const bool current = peer.generation == generation;
        if (current) {
            // Any valid frame is liveness evidence — a peer grinding
            // through a big range answers its queued pings late, and its
            // results count just as well.
            peer.last_pong = steady::now();
            peer.answered = true;
            if (peer.phase == PeerPhase::Suspect) {
                peer.phase = PeerPhase::Alive;
                cv_.notify_all();
            }
        }
        if (message.type == MessageType::Pong) return true;

        if (current && peer.outstanding > 0) --peer.outstanding;
        const auto it = task_index_.find(message.result.id);
        if (it != task_index_.end()) {
            Task& task = *it->second;
            std::erase(task.owing, peer_index);
            if (!task.done) {
                if (!result_matches(task, message.result)) return false;
                task.result = std::move(message.result);
                task.done = true;
            }
            // A duplicate reply for a done task is simply dropped:
            // results are deterministic, first-wins.
        }
        // Unknown id: a stale reply from an abandoned or earlier query —
        // the outstanding decrement above is all it was still good for.
        cv_.notify_all();
        return true;
    }

    /// Shape check: a reply that does not answer the question asked is a
    /// protocol violation, not a mergeable result.
    [[nodiscard]] static bool result_matches(const Task& task,
                                             const WireResult& result) {
        if (result.want != task.want || result.range_begin != task.begin ||
            result.range_end != task.end)
            return false;
        const std::size_t count = task.end - task.begin;
        switch (task.want) {
            case WantTag::Detects: return result.verdicts.size() == count;
            case WantTag::DetectsAll: return true;
            case WantTag::Traces: return result.traces.size() == count;
        }
        return false;
    }

    void mark_dead(std::size_t peer_index, std::uint64_t generation) const {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (peers_[peer_index]->generation != generation)
            return;  // a stale verdict about an already-replaced connection
        mark_dead_locked(peer_index);
    }

    void mark_dead_locked(std::size_t peer_index) const {
        PeerState& peer = *peers_[peer_index];
        if (peer.phase == PeerPhase::Dead ||
            peer.phase == PeerPhase::Reconnecting)
            return;
        peer.phase = PeerPhase::Dead;
        peer.outstanding = 0;
        if (peer.channel) peer.channel->shutdown();
        // Ranges this peer still owed fall back to pending (owing empty):
        // the dispatcher re-dispatches them to surviving peers.
        for (auto& [id, task] : task_index_)
            std::erase(task->owing, peer_index);
        // A connection that answered anything earns an immediate redial.
        // One that died before its first frame counts as a failed attempt
        // and waits out the backoff, so a listener that accepts and drops
        // every connection is not redialled on every supervisor tick.
        if (peer.answered) {
            peer.backoff_attempt = 0;
            peer.next_attempt = steady::now();
        } else {
            peer.next_attempt =
                steady::now() + backoff_delay(peer.backoff_attempt++);
        }
        cv_.notify_all();
    }

    // ---------------------------------------------------- supervisor side --

    void supervisor_loop() const {
        struct PingJob {
            std::size_t peer;
            std::uint64_t generation;
            std::shared_ptr<FrameChannel> channel;
            std::uint64_t nonce;
        };
        while (!stop_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(kSupervisorTick);
            if (stop_.load(std::memory_order_relaxed)) return;
            const auto now = steady::now();
            std::vector<PingJob> pings;
            std::vector<std::size_t> reconnects;
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                for (std::size_t p = 0; p < peers_.size(); ++p) {
                    PeerState& peer = *peers_[p];
                    if (peer.phase == PeerPhase::Alive ||
                        peer.phase == PeerPhase::Suspect) {
                        if (options_.heartbeat_interval_ms <= 0) continue;
                        const auto pong_age = now - peer.last_pong;
                        if (pong_age >= std::chrono::milliseconds(
                                            options_.dead_after_ms)) {
                            mark_dead_locked(p);
                            continue;
                        }
                        if (peer.phase == PeerPhase::Alive &&
                            pong_age >= std::chrono::milliseconds(
                                            options_.suspect_after_ms))
                            peer.phase = PeerPhase::Suspect;
                        if (now - peer.last_ping >=
                            std::chrono::milliseconds(
                                options_.heartbeat_interval_ms)) {
                            peer.last_ping = now;
                            pings.push_back({p, peer.generation,
                                             peer.channel, ++ping_nonce_});
                        }
                    } else if (peer.phase == PeerPhase::Dead &&
                               peer.connect_fn && now >= peer.next_attempt) {
                        peer.phase = PeerPhase::Reconnecting;
                        reconnects.push_back(p);
                    }
                }
            }
            for (PingJob& ping : pings) {
                bool sent;
                {
                    const std::lock_guard<std::mutex> send_lock(
                        peers_[ping.peer]->send_mutex);
                    sent = ping.channel->send(
                        net::encode_ping({ping.nonce}));
                }
                if (!sent) mark_dead(ping.peer, ping.generation);
            }
            for (const std::size_t p : reconnects) attempt_reconnect(p);
        }
    }

    /// One reconnect attempt for a peer the supervisor just moved to
    /// Reconnecting. Runs on the supervisor thread, blocking ops outside
    /// mutex_. Success rejoins the peer to range scheduling (Alive, fresh
    /// generation, new receiver); failure schedules the next attempt on
    /// the jittered exponential backoff.
    void attempt_reconnect(std::size_t peer_index) const {
        PeerState& peer = *peers_[peer_index];
        // The previous connection's receiver exits promptly: its channel
        // was shut down when the peer died.
        if (peer.receiver.joinable()) peer.receiver.join();
        int fd = -1;
        try {
            fd = peer.connect_fn();
        } catch (...) {
            fd = -1;
        }
        std::shared_ptr<FrameChannel> channel;
        if (fd >= 0) channel = open_channel(fd);
        const auto now = steady::now();
        const std::lock_guard<std::mutex> lock(mutex_);
        if (channel != nullptr && !stop_.load(std::memory_order_relaxed)) {
            peer.channel = std::move(channel);
            peer.phase = PeerPhase::Alive;
            peer.outstanding = 0;
            peer.last_pong = now;
            peer.last_ping = now;
            peer.answered = false;
            const std::uint64_t generation = ++peer.generation;
            peer.receiver = std::thread(
                [this, peer_index, generation, ch = peer.channel] {
                    receiver_loop(peer_index, generation, ch);
                });
            cv_.notify_all();
        } else {
            if (channel) channel->shutdown();
            peer.phase = PeerPhase::Dead;
            peer.next_attempt = now + backoff_delay(peer.backoff_attempt++);
        }
    }

    /// min(backoff << attempt, backoff_max), jittered into [base/2, base]
    /// by the seeded generator — deterministic, so chaos runs replay.
    [[nodiscard]] std::chrono::milliseconds backoff_delay(int attempt) const {
        const auto shifted =
            static_cast<std::uint64_t>(options_.reconnect_backoff_ms)
            << std::min(attempt, 20);
        const std::uint64_t base = std::min(
            shifted,
            static_cast<std::uint64_t>(options_.reconnect_backoff_max_ms));
        const std::uint64_t jitter = backoff_rng_.below(base / 2 + 1);
        return std::chrono::milliseconds(base - base / 2 + jitter);
    }

    // --------------------------------------------------- dispatcher side --

    /// Splits the population into 504-lane-aligned ranges, ships each as
    /// a Query, and gathers results with straggler re-dispatch, deadline
    /// budgeting and (policy permitting) local degradation. Returns the
    /// completed tasks' results in range order; with want == DetectsAll an
    /// escaping range short-circuits and the abandoned tasks are omitted.
    [[nodiscard]] std::vector<WireResult> execute(
        WantTag want, const WordContext& ctx,
        std::span<const word::InjectedBitFault> population) const {
        // A query no runner can run would come back from every peer as an
        // Error or a refused frame, each costing that peer's connection.
        MTG_EXPECTS(word::valid_setup(ctx.backgrounds, ctx.opts));
        if (population.empty()) return {};
        const std::lock_guard<std::mutex> exec_lock(exec_mutex_);

        // Build and register the tasks.
        std::vector<Task> tasks;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            int alive = 0;
            bool revivable = false;
            for (const auto& peer : peers_) {
                if (peer->phase == PeerPhase::Alive ||
                    peer->phase == PeerPhase::Suspect)
                    ++alive;
                else if (peer->connect_fn)
                    revivable = true;
            }
            if (alive == 0 && !revivable &&
                options_.degrade == DegradePolicy::FailFast)
                throw std::runtime_error(
                    "RemoteBackend: no live peers to dispatch to");
            const auto ranges = shard_ranges(
                population.size(), std::max(alive, 1) * kRangesPerPeer);
            tasks.reserve(ranges.size());
            for (const auto& [begin, end] : ranges) {
                Task task;
                task.id = next_id_++;
                task.begin = begin;
                task.end = end;
                task.want = want;
                WireQuery query;
                query.id = task.id;
                query.want = want;
                query.range_begin = begin;
                query.range_end = end;
                query.test = ctx.test;
                query.opts = ctx.opts;
                query.backgrounds = ctx.backgrounds;
                query.faults.assign(population.begin() + begin,
                                    population.begin() + end);
                task.payload = net::encode_query(query);
                tasks.push_back(std::move(task));
            }
            for (Task& task : tasks) task_index_.emplace(task.id, &task);
        }
        // Always unregister, even when throwing: task_index_ must never
        // outlive the tasks vector it points into.
        struct Deregister {
            const RemoteBackend* backend;
            std::vector<Task>* tasks;
            ~Deregister() {
                const std::lock_guard<std::mutex> lock(backend->mutex_);
                for (const Task& task : *tasks)
                    backend->task_index_.erase(task.id);
            }
        } deregister{this, &tasks};

        run_dispatch_loop(tasks, want);

        std::vector<WireResult> results;
        results.reserve(tasks.size());
        for (Task& task : tasks)
            if (task.done) results.push_back(std::move(task.result));
        return results;
    }

    void run_dispatch_loop(std::vector<Task>& tasks, WantTag want) const {
        const auto start = steady::now();
        const auto straggler_age =
            std::chrono::milliseconds(options_.straggler_timeout_ms);
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            bool all_done = true;
            for (const Task& task : tasks) {
                if (want == WantTag::DetectsAll && task.done &&
                    !task.result.all)
                    return;  // AND short-circuit: verdict is already false
                all_done = all_done && task.done;
            }
            if (all_done) return;

            if (options_.query_deadline_ms > 0 &&
                steady::now() - start >= std::chrono::milliseconds(
                                             options_.query_deadline_ms)) {
                degrade_or_throw(tasks, want, lock,
                                 "query deadline exceeded");
                return;
            }

            // Hand pending and straggler-aged ranges to idle Alive peers.
            struct Send {
                std::size_t peer;
                std::uint64_t generation;
                std::shared_ptr<FrameChannel> channel;
                Task* task;
            };
            std::vector<Send> sends;
            const auto now = steady::now();
            for (std::size_t p = 0; p < peers_.size(); ++p) {
                PeerState& peer = *peers_[p];
                if (peer.phase != PeerPhase::Alive || peer.outstanding > 0)
                    continue;
                Task* chosen = nullptr;
                for (Task& task : tasks) {  // pending ranges first
                    if (!task.done && task.owing.empty()) {
                        chosen = &task;
                        break;
                    }
                }
                if (chosen == nullptr) {
                    // Straggler re-dispatch: duplicate the oldest range
                    // that has been in flight beyond the timeout. Either
                    // copy of the (deterministic) result will do.
                    for (Task& task : tasks) {
                        if (task.done || task.owing.empty()) continue;
                        if (now - task.last_dispatch < straggler_age)
                            continue;
                        if (chosen == nullptr ||
                            task.last_dispatch < chosen->last_dispatch)
                            chosen = &task;
                    }
                }
                if (chosen == nullptr) continue;
                // Commit before sending so the next idle peer in this
                // round sees the range as in flight.
                chosen->owing.push_back(p);
                chosen->last_dispatch = now;
                ++peer.outstanding;
                sends.push_back({p, peer.generation, peer.channel, chosen});
            }

            if (sends.empty()) {
                bool any_usable = false;    // could still answer
                bool any_revivable = false;  // could come back
                for (const auto& peer : peers_) {
                    if (peer->phase == PeerPhase::Alive ||
                        peer->phase == PeerPhase::Suspect)
                        any_usable = true;
                    else if (peer->phase == PeerPhase::Reconnecting ||
                             peer->connect_fn)
                        any_revivable = true;
                }
                if (!any_usable && !any_revivable) {
                    degrade_or_throw(tasks, want, lock,
                                     "all peers dead with ranges "
                                     "unanswered");
                    return;
                }
                cv_.wait_for(lock, kDispatchTick);
                continue;
            }

            lock.unlock();
            for (const Send& send : sends) {
                bool sent;
                {
                    const std::lock_guard<std::mutex> send_lock(
                        peers_[send.peer]->send_mutex);
                    sent = send.channel->send(send.task->payload);
                }
                if (!sent) mark_dead(send.peer, send.generation);
            }
            lock.lock();
        }
    }

    /// The fleet cannot (or may not, deadline-wise) finish this query.
    /// FailFast throws; DegradeLocal answers every unfinished range on a
    /// coordinator-local PackedBackend via the exact evaluation a worker
    /// runs, so the merged result is bit-identical to an all-remote run.
    /// Entered and left holding `lock`.
    void degrade_or_throw(std::vector<Task>& tasks, WantTag want,
                          std::unique_lock<std::mutex>& lock,
                          const char* why) const {
        bool any_pending = false;
        for (const Task& task : tasks) any_pending |= !task.done;
        if (!any_pending) return;
        if (options_.degrade == DegradePolicy::FailFast)
            throw std::runtime_error(std::string("RemoteBackend: ") + why);

        lock.unlock();
        if (local_ == nullptr) local_ = make_packed_backend();
        for (Task& task : tasks) {
            {
                const std::lock_guard<std::mutex> peek(mutex_);
                if (task.done) continue;  // a late remote reply won
            }
            const WireQuery query =
                net::decode_message(task.payload).query;
            WireResult result = net::evaluate_query(*local_, query);
            const std::lock_guard<std::mutex> commit(mutex_);
            if (!task.done) {
                task.result = std::move(result);
                task.done = true;
            }
            if (want == WantTag::DetectsAll && !task.result.all)
                break;  // AND short-circuit, exactly like the remote path
        }
        lock.lock();
    }
};

}  // namespace

std::unique_ptr<Backend> make_remote_backend(std::vector<int> peer_fds,
                                             const RemoteOptions& options) {
    std::vector<PeerConfig> configs;
    configs.reserve(peer_fds.size());
    for (const int fd : peer_fds) configs.push_back({fd, {}});
    return std::make_unique<RemoteBackend>(std::move(configs), options);
}

std::unique_ptr<Backend> make_remote_backend(std::vector<PeerConfig> peers,
                                             const RemoteOptions& options) {
    return std::make_unique<RemoteBackend>(std::move(peers), options);
}

}  // namespace mtg::engine
