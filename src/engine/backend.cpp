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
// bit 0). word::bit_view defines the mapping of options and faults;
// BitTraceEmit maps the kernel's trace entries back. Each thread keeps one
// bit-view runner (bit_runner) and one word-form population buffer
// (word_faults) and refills them per query, so a small bit query pays for
// its kernel pass and not for building a plan.

/// This thread's bit-view runner, pointed at the query's test. A small
/// generator probe would otherwise pay for building a plan (backgrounds,
/// ⇕ expansions, read sites) on top of its pass, so the runner is built
/// again only when the memory size, the ⇕ cap, the pool or the lane width
/// changes; for any other query WordBatchRunner::set_test refills the
/// buffers it holds. Like the buffer of word_faults below, this rests on
/// kernel passes never issuing queries: no call on this thread can
/// retarget the runner while a query runs on it.
const word::WordBatchRunner& bit_runner(const BitContext& ctx) {
    struct Cached {
        std::optional<word::WordBatchRunner> runner;
        int memory_size{0};
        int max_any_expansion{0};
        util::ThreadPool* pool{nullptr};
        int lane_width{0};
    };
    thread_local Cached cached;
    if (cached.runner && cached.memory_size == ctx.opts.memory_size &&
        cached.max_any_expansion == ctx.opts.max_any_expansion &&
        cached.pool == ctx.pool && cached.lane_width == ctx.lane_width) {
        cached.runner->set_test(ctx.test);
        return *cached.runner;
    }
    cached.runner.emplace(ctx.test, word::solid_background(1),
                          word::bit_view(ctx.opts), ctx.pool, ctx.lane_width);
    cached.memory_size = ctx.opts.memory_size;
    cached.max_any_expansion = ctx.opts.max_any_expansion;
    cached.pool = ctx.pool;
    cached.lane_width = ctx.lane_width;
    return *cached.runner;
}

/// The population in word form, in a per-thread buffer that the next call
/// on this thread overwrites: each bit query maps its faults once and
/// reads them until it returns, and small generator probes would
/// otherwise pay an allocation per query. Kernel passes never issue
/// queries, so no call on this thread can overwrite the buffer while a
/// query reads it.
std::span<const word::InjectedBitFault> word_faults(
    std::span<const sim::InjectedFault> population) {
    thread_local std::vector<word::InjectedBitFault> faults;
    faults.clear();
    for (const sim::InjectedFault& fault : population)
        faults.push_back(word::bit_view(fault));
    return faults;
}

/// Records the width-1 kernel's trace entries as a bit trace: background 0
/// is the only background and every observation is bit 0 of its word, so
/// the word is the cell.
struct BitTraceEmit {
    using Trace = sim::RunTrace;
    static void reserve(Trace& trace, std::size_t reads,
                        std::size_t observations) {
        trace.failing_reads.reserve(reads);
        trace.failing_observations.reserve(observations);
    }
    static void read(Trace& trace, int background,
                     const sim::ReadSite& site) {
        MTG_ASSERT(background == 0);
        trace.failing_reads.push_back(site);
    }
    static void observation(Trace& trace, int background,
                            const sim::ReadSite& site, int word,
                            std::uint64_t bits) {
        MTG_ASSERT(background == 0 && bits == 1);
        trace.failing_observations.push_back({site, word});
    }
};

class PackedBackend final : public Backend {
public:
    [[nodiscard]] const char* name() const override { return "packed"; }

    [[nodiscard]] std::vector<bool> detects(
        const BitContext& ctx,
        std::span<const sim::InjectedFault> population) const override {
        return bit_runner(ctx).detects(word_faults(population));
    }

    [[nodiscard]] bool detects_all(
        const BitContext& ctx,
        std::span<const sim::InjectedFault> population) const override {
        return bit_runner(ctx).detects_all(word_faults(population));
    }

    [[nodiscard]] std::vector<sim::RunTrace> traces(
        const BitContext& ctx,
        std::span<const sim::InjectedFault> population) const override {
        return bit_runner(ctx).run_with<BitTraceEmit>(
            word_faults(population));
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

private:
    [[nodiscard]] static word::WordBatchRunner runner(const WordContext& ctx) {
        return word::WordBatchRunner(ctx.test, ctx.backgrounds, ctx.opts,
                                     ctx.pool, ctx.lane_width);
    }
};

}  // namespace

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
