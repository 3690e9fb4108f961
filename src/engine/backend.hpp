#pragma once

/// \file backend.hpp
/// Execution backends behind engine::Engine.
///
/// A Backend answers the three primitive simulation questions — per-fault
/// guaranteed detection, all-detected with fail-fast, and full guaranteed
/// traces — for both fault universes (bit populations on an n-cell memory,
/// bit-fault placements on a words × width word memory). The Engine picks
/// the backend once per session; every consumer above it (generator gate,
/// coverage matrix, dictionaries, compatibility wrappers) is backend-
/// agnostic.
///
/// Three implementations ship today:
///   - ScalarBackend: the original one-memory-per-fault oracles
///     (sim::run_once / word::detects intersection). Slow, obviously
///     correct — kept for differential testing.
///   - PackedBackend: the production path; wraps sim::BatchRunner /
///     word::WordBatchRunner (63·W-lane packed passes, (chunk × ⇕)
///     grid sharded across the thread pool).
///   - RemoteBackend (net/remote_backend.hpp): splits the population into
///     shard_ranges, scatters them to worker peers speaking the net/wire
///     format and merges the replies — per-fault verdicts by
///     concatenation, the all-detected verdict by AND — with straggler
///     re-dispatch and dead-peer failover.
///
/// Every backend produces bit-identical results for every lane width,
/// worker count and peer count (tests/engine_test.cpp enforces this
/// against the scalar oracle).

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "march/march_test.hpp"
#include "sim/march_runner.hpp"
#include "util/thread_pool.hpp"
#include "word/background.hpp"
#include "word/word_march.hpp"
#include "word/word_trace.hpp"

namespace mtg::engine {

/// Session state a backend needs to evaluate a bit-universe query.
struct BitContext {
    const march::MarchTest& test;
    const sim::RunOptions& opts;
    util::ThreadPool* pool{nullptr};  ///< nullptr = process-wide pool
    int lane_width{0};                ///< 0 = active_lane_width()
};

/// Session state a backend needs to evaluate a word-universe query.
struct WordContext {
    const march::MarchTest& test;
    const std::vector<word::Background>& backgrounds;
    const word::WordRunOptions& opts;
    util::ThreadPool* pool{nullptr};
    int lane_width{0};
};

/// The uniform execution interface: three verdict shapes × two universes.
/// All methods are const and safe to call concurrently.
class Backend {
public:
    virtual ~Backend() = default;

    [[nodiscard]] virtual const char* name() const = 0;

    /// Per-fault guaranteed detection (every ⇕ expansion detects),
    /// element i answering for population[i].
    [[nodiscard]] virtual std::vector<bool> detects(
        const BitContext& ctx,
        std::span<const sim::InjectedFault> population) const = 0;

    /// True when every population member is detected (fail-fast allowed).
    [[nodiscard]] virtual bool detects_all(
        const BitContext& ctx,
        std::span<const sim::InjectedFault> population) const = 0;

    /// Full guaranteed traces in canonical order, element i for
    /// population[i].
    [[nodiscard]] virtual std::vector<sim::RunTrace> traces(
        const BitContext& ctx,
        std::span<const sim::InjectedFault> population) const = 0;

    [[nodiscard]] virtual std::vector<bool> detects(
        const WordContext& ctx,
        std::span<const word::InjectedBitFault> population) const = 0;

    [[nodiscard]] virtual bool detects_all(
        const WordContext& ctx,
        std::span<const word::InjectedBitFault> population) const = 0;

    [[nodiscard]] virtual std::vector<word::WordRunTrace> traces(
        const WordContext& ctx,
        std::span<const word::InjectedBitFault> population) const = 0;
};

/// Contiguous [begin, end) fault ranges, aligned to whole W=8 lane blocks
/// (504 lanes) so every boundary is a chunk boundary at any lane width:
/// each range's per-chunk 64-bit lane masks and trace grids are disjoint,
/// and merging is pure concatenation (per-fault answers) or AND (the
/// all-detected verdict). The RemoteBackend coordinator
/// (net/remote_backend.hpp) ships these ranges over sockets. At most
/// `shards` ranges, never an empty one; block counts differ by at most one.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> shard_ranges(
    std::size_t total, int shards);

[[nodiscard]] std::unique_ptr<Backend> make_scalar_backend();
[[nodiscard]] std::unique_ptr<Backend> make_packed_backend();

}  // namespace mtg::engine
