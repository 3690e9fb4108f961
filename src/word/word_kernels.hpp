#pragma once

/// \file word_kernels.hpp
/// Width-generic grid kernels behind word::WordBatchRunner.
///
/// Same structure as sim_kernels.hpp, lifted to the word-oriented model:
/// one `word_run_pass` streams the whole background set through a chunk of
/// 63·W bit faults on the SAME packed memory (state carries across
/// backgrounds exactly like the scalar word runner) under one fixed ⇕
/// choice, and the drivers shard the (chunk × expansion) grid across a
/// util::ThreadPool with atomic-free per-worker AND accumulators and an
/// atomic fail-fast flag. Results are bit-identical across widths and
/// worker counts.
///
/// Traces: when the optional per-pass sinks are supplied, the pass also
/// records which lanes mismatched per (background, site) and per
/// (background, site, word, bit) coordinate; word_run_chunk intersects
/// those across the ⇕ expansions and word_run shards chunks across the
/// pool with each chunk writing a disjoint slice of the WordRunTrace
/// vector — the word::guaranteed_trace semantics, 63·W faults per sweep.
///
/// The (background, site) read grid is small and stays dense
/// (sim::detail::GuaranteedMasks). The (background, site, word, bit)
/// observation grid would be O(words · width) dense, but a fault lane
/// only mismatches at words holding one of its victim bits, so it is kept
/// as site-major sparse runs (sim::detail::SparseGuaranteedRuns: sorted
/// (word, bit, lanes) entries per (background, site), intersected by
/// merge-walking) — O(touched cells) memory, so words=4096 × width=8
/// traces in a few MiB where a dense slab would need GiBs.

#include <atomic>
#include <span>
#include <vector>

#include "march/march_test.hpp"
#include "sim/lane_block.hpp"
#include "sim/lane_dispatch.hpp"
#include "sim/march_runner.hpp"
#include "sim/pass_scratch.hpp"
#include "sim/trace_masks.hpp"
#include "util/thread_pool.hpp"
#include "word/packed_word_memory.hpp"
#include "word/word_march.hpp"
#include "word/word_trace.hpp"

namespace mtg::word::detail {

using sim::block_chunk_count;
using sim::block_chunk_total;
using sim::block_fault_lanes;
using sim::block_fill;
using sim::block_none;
using sim::block_ones;
using sim::block_test;
using sim::block_used_lanes;
using sim::block_zero;
using sim::fault_lane;
using sim::detail::SparseGuaranteedRuns;

/// Everything a WordBatchRunner precomputes once; shared by the kernels of
/// every width.
struct WordPlan {
    march::MarchTest test;
    std::vector<Background> backgrounds;
    WordRunOptions opts;
    util::ThreadPool* pool{nullptr};
    std::vector<unsigned> expansions;
    std::vector<sim::ReadSite> sites;
    std::vector<std::vector<int>> site_id;  ///< (element, op) -> flat site
};

/// Flat coordinate of the (background, site) read grid.
inline std::size_t word_site_index(const WordPlan& plan, std::size_t bkg,
                                   std::size_t site) {
    return bkg * plan.sites.size() + site;
}

/// One full (all backgrounds, fixed ⇕ choice) execution of one chunk;
/// writes the lanes with at least one definite read mismatch to
/// `*detected_out`; when site_now/observations are non-null they receive
/// the per-(background, site) and per-(background, site, word, bit)
/// mismatch masks of this single pass. Pointer-only signature: the
/// AVX-attributed wrappers and their generic callers disagree on the
/// register convention for returning a 256/512-bit vector by value.
template <typename Block>
using WordPassFn = void (*)(const WordPlan&, const InjectedBitFault*, int,
                            unsigned, Block*, std::vector<Block>*,
                            SparseGuaranteedRuns<Block>*);

template <typename Block>
void word_run_pass(const WordPlan& plan, const InjectedBitFault* faults,
                   int count, unsigned choice, Block* detected_out,
                   std::vector<Block>* site_now,
                   SparseGuaranteedRuns<Block>* observations) {
    const Block used = block_used_lanes<Block>(count);

    // Workers are long-lived, so each keeps one armed scratch memory
    // (sim/pass_scratch.hpp): a chunk it already holds at this geometry
    // costs only a plane clear, any other chunk a reset and inject with no
    // malloc traffic.
    thread_local sim::detail::ArmedPassScratch<
        Block, PackedWordMemoryT<Block>, InjectedBitFault, int, int>
        scratch;
    PackedWordMemoryT<Block>& memory = scratch.arm(
        std::span<const InjectedBitFault>(faults,
                                          static_cast<std::size_t>(count)),
        plan.opts.words, plan.opts.width);

    typename PackedWordMemoryT<Block>::ReadResult got[64];
    Block detected = block_zero<Block>();
    // Backgrounds stream through the packed lanes on the same memory, so
    // state carries from one background run into the next exactly as in
    // the scalar word runner.
    for (std::size_t k = 0; k < plan.backgrounds.size(); ++k) {
        const std::uint64_t b0 = plan.backgrounds[k].bits;
        const std::uint64_t b1 = plan.backgrounds[k].complement().bits;
        int any_seen = 0;
        for (std::size_t e = 0; e < plan.test.size(); ++e) {
            const auto& element = plan.test[e];
            bool desc = element.order == march::AddressOrder::Descending;
            if (element.order == march::AddressOrder::Any) {
                desc = ((choice >> any_seen) & 1u) != 0;
                ++any_seen;
            }
            const int n = plan.opts.words;
            for (int step = 0; step < n; ++step) {
                const int word = desc ? n - 1 - step : step;
                for (std::size_t o = 0; o < element.ops.size(); ++o) {
                    const march::MarchOp& op = element.ops[o];
                    switch (op.kind) {
                        case march::OpKind::Write:
                            memory.write(word, op.value ? b1 : b0);
                            break;
                        case march::OpKind::Wait:
                            memory.wait();
                            break;
                        case march::OpKind::Read: {
                            const std::uint64_t expected =
                                op.value ? b1 : b0;
                            memory.read(word, got);
                            Block site_mask = block_zero<Block>();
                            for (int bit = 0; bit < plan.opts.width; ++bit) {
                                const Block expmask = block_fill<Block>(
                                    ((expected >> bit) & 1u) != 0);
                                const Block mismatch =
                                    got[bit].known &
                                    (got[bit].value ^ expmask) & used;
                                if (block_none(mismatch)) continue;
                                detected |= mismatch;
                                site_mask |= mismatch;
                                // A site reads each word once per
                                // background per pass, so this (word,
                                // bit) key is fresh — the append-once
                                // invariant the sparse runs intersect
                                // under.
                                if (observations != nullptr)
                                    observations->append(
                                        word_site_index(
                                            plan, k,
                                            static_cast<std::size_t>(
                                                plan.site_id[e][o])),
                                        word, bit, mismatch);
                            }
                            if (site_now != nullptr &&
                                !block_none(site_mask))
                                (*site_now)[word_site_index(
                                    plan, k,
                                    static_cast<std::size_t>(
                                        plan.site_id[e][o]))] |= site_mask;
                            break;
                        }
                    }
                }
            }
        }
    }
    *detected_out = detected;
}

template <typename Block>
std::vector<bool> word_detects(
    const WordPlan& plan, WordPassFn<Block> pass,
    std::span<const InjectedBitFault> population) {
    std::vector<bool> result(population.size(), false);
    if (population.empty()) return result;
    const std::size_t chunks = block_chunk_total<Block>(population.size());
    const std::size_t expansions = plan.expansions.size();
    const auto per = static_cast<std::size_t>(block_fault_lanes<Block>);

    // Fused (chunk × expansion) grid with per-worker AND accumulators,
    // merged after the drain — identical results for any worker count.
    std::vector<std::vector<Block>> acc(
        plan.pool->worker_count(),
        std::vector<Block>(chunks, block_ones<Block>()));
    plan.pool->parallel_for(
        chunks * expansions, [&](std::size_t item, unsigned worker) {
            const std::size_t c = item / expansions;
            const unsigned choice = plan.expansions[item % expansions];
            Block detected = block_zero<Block>();
            pass(plan, population.data() + c * per,
                 block_chunk_count<Block>(population.size(), c), choice,
                 &detected, nullptr, nullptr);
            acc[worker][c] &= detected;
        });

    for (std::size_t c = 0; c < chunks; ++c) {
        const int count = block_chunk_count<Block>(population.size(), c);
        Block detected = block_used_lanes<Block>(count);
        for (const auto& worker_acc : acc) detected &= worker_acc[c];
        for (int i = 0; i < count; ++i)
            result[c * per + static_cast<std::size_t>(i)] =
                block_test(detected, fault_lane(i));
    }
    return result;
}

template <typename Block>
bool word_detects_all(const WordPlan& plan, WordPassFn<Block> pass,
                      std::span<const InjectedBitFault> population) {
    if (population.empty()) return true;
    const std::size_t chunks = block_chunk_total<Block>(population.size());
    const std::size_t expansions = plan.expansions.size();
    const auto per = static_cast<std::size_t>(block_fault_lanes<Block>);

    std::atomic<bool> escape{false};
    plan.pool->parallel_for(
        chunks * expansions, [&](std::size_t item, unsigned) {
            if (escape.load(std::memory_order_relaxed)) return;
            const std::size_t c = item / expansions;
            const unsigned choice = plan.expansions[item % expansions];
            const int count =
                block_chunk_count<Block>(population.size(), c);
            Block detected = block_zero<Block>();
            pass(plan, population.data() + c * per, count, choice,
                 &detected, nullptr, nullptr);
            if (!(detected == block_used_lanes<Block>(count)))
                escape.store(true, std::memory_order_relaxed);
        });
    return !escape.load(std::memory_order_relaxed);
}

/// Per-coordinate failing-lane masks of one population chunk, already
/// intersected across every ⇕ expansion (see word_site_index for the
/// grid layout).
template <typename Block>
struct WordChunkResult {
    Block detected{};
    std::vector<Block> site_fail;  ///< [background × site]
    /// Per (background × site) run sorted by (word, bit).
    std::vector<std::vector<sim::detail::SparseObsEntry<Block>>>
        observations;
};

template <typename Block>
WordChunkResult<Block> word_run_chunk(const WordPlan& plan,
                                      WordPassFn<Block> pass,
                                      const InjectedBitFault* faults,
                                      int count) {
    MTG_EXPECTS(count > 0 && count <= block_fault_lanes<Block>);
    const Block used = block_used_lanes<Block>(count);
    const std::size_t site_cells =
        plan.backgrounds.size() * plan.sites.size();

    WordChunkResult<Block> out;
    out.detected = used;
    sim::detail::GuaranteedMasks<Block> sites(site_cells, used);
    SparseGuaranteedRuns<Block> observations(site_cells);

    Block pass_detected = block_zero<Block>();
    for (unsigned choice : plan.expansions) {
        sites.begin_pass();
        observations.begin_pass();
        pass(plan, faults, count, choice, &pass_detected, sites.pass_grid(),
             &observations);
        out.detected &= pass_detected;
        sites.commit_pass();
        observations.commit_pass();
    }
    out.observations = observations.take();

    out.site_fail.resize(site_cells);
    for (std::size_t s = 0; s < site_cells; ++s)
        out.site_fail[s] = sites.guaranteed(s);
    return out;
}

template <typename Block>
std::vector<WordRunTrace> word_run(
    const WordPlan& plan, WordPassFn<Block> pass,
    std::span<const InjectedBitFault> population) {
    std::vector<WordRunTrace> result(population.size());
    if (population.empty()) return result;
    const std::size_t chunks = block_chunk_total<Block>(population.size());
    const auto per = static_cast<std::size_t>(block_fault_lanes<Block>);

    // Chunk-wise sharding: each item expands every ⇕ choice itself (the
    // per-(bkg, site, word, bit) grids would make a fused grid's
    // per-worker state quadratic) and writes a disjoint result slice.
    plan.pool->parallel_for(chunks, [&](std::size_t c, unsigned) {
        const std::size_t base = c * per;
        const int count = block_chunk_count<Block>(population.size(), c);
        const WordChunkResult<Block> chunk =
            word_run_chunk<Block>(plan, pass, population.data() + base,
                                  count);
        for (int i = 0; i < count; ++i)
            result[base + static_cast<std::size_t>(i)].detected =
                block_test(chunk.detected, fault_lane(i));
        // Entry-major extraction: lane-major probing would undo the
        // sparse win (O(lanes · words · width) per coord), so walk each
        // (background, site) run once and fan every entry's lane mask out
        // to the per-fault traces. Coordinates ascend (bkg, site) and
        // runs are sorted by (word, bit), so each trace sees its words in
        // ascending order — the canonical trace order.
        const auto lane_result = [&](int lane) -> WordRunTrace& {
            // Inverse of fault_lane: population index of a fault lane.
            return result[base +
                          static_cast<std::size_t>(
                              (lane / sim::kLaneCount) * sim::kChunkLanes +
                              lane % sim::kLaneCount - 1)];
        };
        struct LaneAcc {
            std::int32_t word{-1};
            std::uint64_t bits{0};
        };
        std::vector<LaneAcc> acc(
            static_cast<std::size_t>(sim::block_lane_count<Block>));
        for (std::size_t k = 0; k < plan.backgrounds.size(); ++k)
            for (std::size_t s = 0; s < plan.sites.size(); ++s) {
                const std::size_t coord = word_site_index(plan, k, s);
                sim::for_each_lane(
                    chunk.site_fail[coord], [&](int lane) {
                        lane_result(lane).failing_reads.push_back(
                            {static_cast<int>(k), plan.sites[s]});
                    });
                // Each lane keeps one open (word, bits) accumulator,
                // flushed when the run moves that lane to a new word and
                // once more when the run ends.
                Block dirty = block_zero<Block>();
                for (const auto& entry : chunk.observations[coord]) {
                    sim::for_each_lane(entry.lanes, [&](int lane) {
                        LaneAcc& a = acc[static_cast<std::size_t>(lane)];
                        if (a.word != entry.word) {
                            if (a.word >= 0)
                                lane_result(lane)
                                    .failing_observations.push_back(
                                        {static_cast<int>(k),
                                         plan.sites[s], a.word, a.bits});
                            a.word = entry.word;
                            a.bits = 0;
                        }
                        a.bits |= std::uint64_t{1} << entry.bit;
                    });
                    dirty |= entry.lanes;
                }
                sim::for_each_lane(dirty, [&](int lane) {
                    LaneAcc& a = acc[static_cast<std::size_t>(lane)];
                    lane_result(lane).failing_observations.push_back(
                        {static_cast<int>(k), plan.sites[s], a.word,
                         a.bits});
                    a.word = -1;
                    a.bits = 0;
                });
            }
    });
    return result;
}

/// Pass-function getters mirroring sim_kernels.hpp: the widest safe
/// codegen per width, defined in lane_kernels.cpp. The W=8 getter picks
/// between the zmm wrapper, the 256-bit (ymm-pair) clone and the generic
/// instantiation per the resolved LaneIsa — all bit-identical.
[[nodiscard]] WordPassFn<LaneMask> word_pass_w1();
[[nodiscard]] WordPassFn<LaneBlock<4>> word_pass_w4();
[[nodiscard]] WordPassFn<LaneBlock<8>> word_pass_w8(
    sim::LaneIsa isa = sim::LaneIsa::Avx512);

}  // namespace mtg::word::detail
