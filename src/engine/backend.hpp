#pragma once

/// \file backend.hpp
/// Execution backends behind engine::Engine.
///
/// A Backend answers the three primitive simulation questions — per-fault
/// guaranteed detection, all-detected with fail-fast, and full guaranteed
/// traces — for both fault universes (bit populations on an n-cell memory,
/// bit-fault placements on a words × width word memory). The Engine picks
/// the backend once per session; every consumer above it (generator gate,
/// coverage matrix, diagnosis dictionary, query server) is backend-
/// agnostic.
///
/// Three implementations ship today:
///   - ScalarBackend: the original one-memory-per-fault oracles
///     (sim::run_once / word::detects intersection). Slow, obviously
///     correct — kept for differential testing.
///   - PackedBackend: the production path; wraps word::WordBatchRunner
///     (63·W-lane packed passes, one work item per chunk, sharded across
///     the thread pool) for both universes. A bit query runs as the
///     width-1 word universe under the solid background, cell c being
///     (word c, bit 0) — word::BitView — and its traces map back through
///     word::bit_trace. Each thread keeps one runner for both universes
///     and retargets it at every query (WordBatchRunner::reset).
///   - RemoteBackend (net/remote_backend.hpp): splits the population into
///     shard_ranges, scatters them to worker peers speaking the net/wire
///     format and merges the replies — per-fault verdicts by
///     concatenation, the all-detected verdict by AND — with straggler
///     re-dispatch and dead-peer failover. A bit query crosses the fleet
///     as its width-1 word view.
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

/// This thread's width-1 word view of a bit query, refilled by every
/// call in the buffers it already holds: a fresh view per query would pay
/// an allocation, and for a large population fresh pages, each time. The
/// next call on this thread overwrites it, so a caller reads it only
/// until its query returns; no backend issues a bit query while running
/// one.
[[nodiscard]] const word::BitView& thread_bit_view(
    const BitContext& ctx, std::span<const sim::InjectedFault> population);

/// The word-universe context of a bit query's width-1 word view; `view`
/// must outlive it.
[[nodiscard]] inline WordContext word_context(const BitContext& ctx,
                                              const word::BitView& view) {
    return {ctx.test, view.backgrounds, view.opts, ctx.pool, ctx.lane_width};
}

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
