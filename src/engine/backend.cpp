#include "engine/backend.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "word/background.hpp"
#include "word/word_batch_runner.hpp"

namespace mtg::engine {

namespace {

// ------------------------------------------------------------- scalar ----

/// Guaranteed bit trace via one sim::run_once per ⇕ expansion: reads and
/// (site, cell) observations intersected across expansions and emitted in
/// the canonical order (textual site order, ascending cell) — the
/// definition the packed kernels are differenced against.
sim::RunTrace scalar_bit_trace(const BitContext& ctx,
                               const sim::InjectedFault& fault) {
    const std::vector<sim::ReadSite> sites = sim::read_sites(ctx.test);
    const std::vector<std::vector<int>> site_ids =
        sim::read_site_ids(ctx.test);
    const int n = ctx.opts.memory_size;
    std::vector<char> site_ok(sites.size(), 1);
    std::vector<char> obs_ok(sites.size() * static_cast<std::size_t>(n), 1);
    // Scratch occurrence grids, rebuilt per expansion so the intersection
    // is one AND sweep instead of a std::find rescan per (site, cell).
    std::vector<char> site_hit(sites.size());
    std::vector<char> obs_hit(obs_ok.size());
    bool detected = true;
    for (unsigned choice : sim::expansion_choices(ctx.test, ctx.opts)) {
        const sim::RunTrace once =
            sim::run_once(ctx.test, {fault}, choice, ctx.opts);
        detected = detected && once.detected;
        std::fill(site_hit.begin(), site_hit.end(), 0);
        std::fill(obs_hit.begin(), obs_hit.end(), 0);
        for (const sim::ReadSite& site : once.failing_reads)
            site_hit[static_cast<std::size_t>(
                site_ids[static_cast<std::size_t>(site.element)]
                        [static_cast<std::size_t>(site.op)])] = 1;
        for (const sim::Observation& obs : once.failing_observations) {
            const auto s = static_cast<std::size_t>(
                site_ids[static_cast<std::size_t>(obs.site.element)]
                        [static_cast<std::size_t>(obs.site.op)]);
            obs_hit[s * static_cast<std::size_t>(n) +
                    static_cast<std::size_t>(obs.cell)] = 1;
        }
        for (std::size_t s = 0; s < sites.size(); ++s)
            site_ok[s] = static_cast<char>(site_ok[s] & site_hit[s]);
        for (std::size_t i = 0; i < obs_ok.size(); ++i)
            obs_ok[i] = static_cast<char>(obs_ok[i] & obs_hit[i]);
    }
    sim::RunTrace out;
    out.detected = detected;
    for (std::size_t s = 0; s < sites.size(); ++s) {
        if (site_ok[s] != 0) out.failing_reads.push_back(sites[s]);
        for (int cell = 0; cell < n; ++cell)
            if (obs_ok[s * static_cast<std::size_t>(n) +
                       static_cast<std::size_t>(cell)] != 0)
                out.failing_observations.push_back({sites[s], cell});
    }
    return out;
}

class ScalarBackend final : public Backend {
public:
    [[nodiscard]] const char* name() const override { return "scalar"; }

    [[nodiscard]] std::vector<bool> detects(
        const BitContext& ctx,
        std::span<const sim::InjectedFault> population) const override {
        std::vector<bool> result;
        result.reserve(population.size());
        for (const sim::InjectedFault& fault : population)
            result.push_back(sim::detects(ctx.test, fault, ctx.opts));
        return result;
    }

    [[nodiscard]] bool detects_all(
        const BitContext& ctx,
        std::span<const sim::InjectedFault> population) const override {
        for (const sim::InjectedFault& fault : population)
            if (!sim::detects(ctx.test, fault, ctx.opts)) return false;
        return true;
    }

    [[nodiscard]] std::vector<sim::RunTrace> traces(
        const BitContext& ctx,
        std::span<const sim::InjectedFault> population) const override {
        std::vector<sim::RunTrace> result;
        result.reserve(population.size());
        for (const sim::InjectedFault& fault : population)
            result.push_back(scalar_bit_trace(ctx, fault));
        return result;
    }

    [[nodiscard]] std::vector<bool> detects(
        const WordContext& ctx,
        std::span<const word::InjectedBitFault> population) const override {
        std::vector<bool> result;
        result.reserve(population.size());
        for (const word::InjectedBitFault& fault : population)
            result.push_back(
                word::detects(ctx.test, ctx.backgrounds, fault, ctx.opts));
        return result;
    }

    [[nodiscard]] bool detects_all(
        const WordContext& ctx,
        std::span<const word::InjectedBitFault> population) const override {
        for (const word::InjectedBitFault& fault : population)
            if (!word::detects(ctx.test, ctx.backgrounds, fault, ctx.opts))
                return false;
        return true;
    }

    [[nodiscard]] std::vector<word::WordRunTrace> traces(
        const WordContext& ctx,
        std::span<const word::InjectedBitFault> population) const override {
        std::vector<word::WordRunTrace> result;
        result.reserve(population.size());
        for (const word::InjectedBitFault& fault : population)
            result.push_back(word::guaranteed_trace(ctx.test, ctx.backgrounds,
                                                    fault, ctx.opts));
        return result;
    }
};

// ------------------------------------------------------------- packed ----

// The bit universe on the one packed kernel: an n-cell bit memory is an
// n-word × 1-bit memory under the solid background, cell c being (word c,
// bit 0). A bit query runs as the word query of its word::BitView and
// maps its traces back with word::bit_trace. Each thread keeps one runner
// for both universes (runner) and one view (thread_bit_view) and refills
// them per query, so a small query pays for its kernel pass and not for
// building a plan.

/// This thread's runner, retargeted at the query by WordBatchRunner::
/// reset. Like thread_bit_view, this rests on kernel passes never issuing
/// queries: no call on this thread can retarget the runner while a query
/// runs on it.
const word::WordBatchRunner& runner(const WordContext& ctx) {
    thread_local std::optional<word::WordBatchRunner> runner;
    if (runner)
        runner->reset(ctx.test, ctx.backgrounds, ctx.opts, ctx.pool,
                      ctx.lane_width);
    else
        runner.emplace(ctx.test, ctx.backgrounds, ctx.opts, ctx.pool,
                       ctx.lane_width);
    return *runner;
}

class PackedBackend final : public Backend {
public:
    [[nodiscard]] const char* name() const override { return "packed"; }

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

    [[nodiscard]] std::vector<bool> detects(
        const WordContext& ctx,
        std::span<const word::InjectedBitFault> population) const override {
        return runner(ctx).detects(population);
    }

    [[nodiscard]] bool detects_all(
        const WordContext& ctx,
        std::span<const word::InjectedBitFault> population) const override {
        return runner(ctx).detects_all(population);
    }

    [[nodiscard]] std::vector<word::WordRunTrace> traces(
        const WordContext& ctx,
        std::span<const word::InjectedBitFault> population) const override {
        return runner(ctx).run(population);
    }
};

}  // namespace

const word::BitView& thread_bit_view(
    const BitContext& ctx, std::span<const sim::InjectedFault> population) {
    thread_local word::BitView view;
    view.assign(ctx.opts, population);
    return view;
}

std::vector<std::pair<std::size_t, std::size_t>> shard_ranges(
    std::size_t total, int shards) {
    constexpr std::size_t kAlign = 63 * 8;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    if (total == 0) return ranges;
    const std::size_t blocks = (total + kAlign - 1) / kAlign;
    const auto n = static_cast<std::size_t>(std::max(shards, 1));
    std::size_t block = 0;
    for (std::size_t s = 0; s < n && block < blocks; ++s) {
        const std::size_t take =
            (blocks - block + (n - s - 1)) / (n - s);  // even split, ceil
        const std::size_t begin = block * kAlign;
        const std::size_t end = std::min(total, (block + take) * kAlign);
        ranges.emplace_back(begin, end);
        block += take;
    }
    return ranges;
}

std::unique_ptr<Backend> make_scalar_backend() {
    return std::make_unique<ScalarBackend>();
}

std::unique_ptr<Backend> make_packed_backend() {
    return std::make_unique<PackedBackend>();
}

}  // namespace mtg::engine
