#pragma once

/// \file word_kernels.hpp
/// Width-generic grid kernels behind word::WordBatchRunner — the one
/// packed kernel, serving both fault universes (the bit universe is the
/// width-1 word universe under the solid background).
///
/// The kernels are templates over the lane-block type (LaneMask,
/// LaneBlock<4>, LaneBlock<8>): one `word_run_pass` streams the whole
/// background set through a chunk of 63·W bit faults on the SAME packed
/// memory (state carries across backgrounds exactly like the scalar word
/// runner) under every ⇕ choice of the plan, and the drivers shard the
/// chunks across a util::ThreadPool, one work item per chunk writing its
/// own result slot, with an atomic escape flag for DetectsAll that every
/// chunk's walk checks at its leaves. Because
/// each plane word of a block is bit-identical to a scalar chunk, results
/// are identical across lane widths and worker counts. The pass is
/// reached through a `WordPassFn` pointer so that a W=8 job on an
/// AVX-512F host can run the `target("avx512f")` wrapper in
/// word_kernels.cpp (see sim::active_lane_isa).
///
/// The ⇕ choices form a tree, walked depth first (ExpansionWalk). The
/// walk runs the (background, element) sequence in order; at the first
/// occurrence of each ⇕ element (always under the first background) it
/// splits the choices still consistent by that element's bit, and it
/// branches only when both sides are non-empty: it snapshots the
/// value/known planes, runs the element ascending and goes on to the
/// leaf, then restores the planes and runs it descending. Later
/// backgrounds reuse the bit and never branch. A test whose ⇕ element e
/// is preceded by j(e) branch points (itself included) costs
/// Σ_e ops_e · 2^{j(e)} element-ops instead of 2^k times the whole test;
/// past `max_any_expansion` the choices are the two uniform sweeps and the
/// first ⇕ element is the only branch point. A chunk's verdict is the AND
/// over leaves of the OR of mismatches along each root-to-leaf path;
/// DetectsAll stops every chunk's walk at the first leaf after some chunk
/// reached a leaf with an escaping lane. The snapshot
/// stack holds at most one plane copy per branch point on the current
/// path, so at most max_any_expansion ≤ march::kMaxAnyExpansion (16)
/// copies of words × width × 2 blocks, kept in per-thread scratch.
///
/// Traces: when the optional sinks are supplied, the pass also records
/// which lanes mismatched per (background, site) and per (background,
/// site, word, bit) coordinate along the current path, and intersects
/// the path into them at every leaf — the word::guaranteed_trace
/// semantics, 63·W faults per sweep. The sinks mark their path state at a
/// branch point and roll back to it with the planes (trace_masks.hpp).
/// word_run shards chunks across the pool, each chunk writing a disjoint
/// slice of the trace vector. Each thread keeps one pair of sinks
/// (TraceSinks), re-armed per chunk, and fans the traces out of them
/// directly: a counting walk over the chunk's guaranteed grids first sizes
/// every trace's two vectors exactly, then one walk fills them in
/// canonical order.
///
/// The (background, site) read grid is small and stays dense
/// (sim::detail::GuaranteedMasks). The (background, site, word, bit)
/// observation grid would be O(words · width) dense, but a fault lane
/// only mismatches at words holding one of its victim bits, so it is kept
/// as site-major sparse runs (sim::detail::SparseGuaranteedRuns: sorted
/// (word, bit, lanes) entries per (background, site), intersected by
/// merge-walking) — O(touched cells) memory, so words=4096 × width=8
/// traces in a few MiB where a dense slab would need GiBs.

#include <algorithm>
#include <atomic>
#include <span>
#include <vector>

#include "march/expansion.hpp"
#include "march/march_test.hpp"
#include "sim/lane_block.hpp"
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
using sim::detail::GuaranteedMasks;
using sim::detail::SparseGuaranteedRuns;

/// Everything a WordBatchRunner precomputes once; shared by the kernels of
/// every width.
struct WordPlan {
    march::MarchTest test;
    std::vector<Background> backgrounds;
    WordRunOptions opts;
    util::ThreadPool* pool{nullptr};
    std::vector<unsigned> expansions;
    std::vector<sim::ReadSite> sites;  ///< read sites in textual order
};

/// Flat coordinate of the (background, site) read grid.
inline std::size_t word_site_index(const WordPlan& plan, std::size_t bkg,
                                   std::size_t site) {
    return bkg * plan.sites.size() + site;
}

/// The ⇕ choice tree of one pass, walked depth first, with its snapshot
/// stack (see the file comment). The choices still consistent with the
/// current path are the range [lo, hi) of a working copy of the plan's
/// choices; a branch partitions that range by the element's bit, runs the
/// ascending half first and keeps the descending half in its frame.
/// Workers keep one walk per thread, so the stack's buffers stay at their
/// high-water size across passes.
template <typename Block>
class ExpansionWalk {
public:
    /// Where the walk resumes after a leaf: the branching element of the
    /// first background, to be run descending over choices [mid, hi).
    struct Frame {
        std::size_t element;
        int first_site;  ///< flat id of the element's first read site
        int any_index;   ///< the element's ⇕ index j
        std::size_t mid;
        std::size_t hi;
    };

    /// Starts a walk over `choices` on a memory of `cell_blocks` plane
    /// blocks (PackedWordMemoryT::cell_blocks).
    void start(const std::vector<unsigned>& choices, std::size_t cell_blocks) {
        choices_.assign(choices.begin(), choices.end());
        lo_ = 0;
        hi_ = choices_.size();
        frames_.clear();
        blocks_ = cell_blocks;
    }

    /// At the first occurrence of ⇕ element `j`: splits the consistent
    /// choices by bit j. When both sides are non-empty this is a branch
    /// point: the planes of `memory` and the path mask `path` are pushed
    /// with a frame for the descending side, the walk goes on with the
    /// ascending side, and the result is true.
    template <typename Memory>
    bool branch(int j, std::size_t element, int first_site,
                const Memory& memory, const Block& path) {
        const auto first = choices_.begin() + static_cast<std::ptrdiff_t>(lo_);
        const auto last = choices_.begin() + static_cast<std::ptrdiff_t>(hi_);
        const auto split = std::partition(first, last, [j](unsigned c) {
            return !march::any_descending(c, j);
        });
        if (split == first || split == last) return false;
        const std::size_t mid =
            static_cast<std::size_t>(split - choices_.begin());
        const std::size_t depth = frames_.size();
        frames_.push_back(Frame{element, first_site, j, mid, hi_});
        if (cells_.size() < (depth + 1) * blocks_)
            cells_.resize((depth + 1) * blocks_);
        memory.save_cells(cells_.data() + depth * blocks_);
        if (paths_.size() <= depth) paths_.resize(depth + 1);
        paths_[depth] = path;
        hi_ = mid;
        return true;
    }

    /// Direction of ⇕ element `j` on the current path.
    [[nodiscard]] bool descending(int j) const {
        return march::any_descending(choices_[lo_], j);
    }

    /// True when no branch point waits for its descending side.
    [[nodiscard]] bool done() const { return frames_.empty(); }

    /// Pops the innermost frame: restores the planes of `memory` and the
    /// path mask `path` saved there and moves the walk to the frame's
    /// descending side, which the caller resumes at the returned frame.
    template <typename Memory>
    Frame backtrack(Memory& memory, Block& path) {
        const Frame frame = frames_.back();
        frames_.pop_back();
        const std::size_t depth = frames_.size();
        memory.restore_cells(cells_.data() + depth * blocks_);
        path = paths_[depth];
        lo_ = frame.mid;
        hi_ = frame.hi;
        return frame;
    }

private:
    std::vector<unsigned> choices_;
    std::size_t lo_{0};
    std::size_t hi_{0};
    std::vector<Frame> frames_;
    std::vector<Block> cells_;  ///< frame d's planes at [d·blocks_, …)
    std::vector<Block> paths_;  ///< frame d's path mask
    std::size_t blocks_{0};
};

/// One execution of one chunk over every background and every ⇕ choice of
/// the plan, as one depth-first walk of the choice tree (see the file
/// comment). Writes to `*detected_out` the lanes that have at least one
/// definite read mismatch under every choice. With an `escape` flag (the
/// DetectsAll verdict shared by a query's chunks) the walk raises it at
/// the first leaf that leaves a used lane undetected and stops at the
/// first leaf after it is raised, by this chunk or another; only "all
/// used lanes" versus "not all" is then meaningful. When `sites` and
/// `observations` are non-null they are filled with the guaranteed
/// per-(background, site) and per-(background, site, word, bit) mismatch
/// masks. Pointer-only signature, and no block passes by value anywhere
/// in the walk: the AVX-attributed wrappers and their generic callers
/// disagree on the register convention for 256/512-bit vectors.
template <typename Block>
using WordPassFn = void (*)(const WordPlan&, const InjectedBitFault*, int,
                            std::atomic<bool>*, Block*,
                            GuaranteedMasks<Block>*,
                            SparseGuaranteedRuns<Block>*);

/// `Width` fixes the word width at compile time (0 = plan.opts.width at
/// run time); the width-1 instantiation is the bit universe's pass. The
/// walk is a loop over an explicit frame stack, not a recursion, so the
/// zmm wrapper's `flatten` inlines all of it.
template <typename Block, int Width = 0>
void word_run_pass(const WordPlan& plan, const InjectedBitFault* faults,
                   int count, std::atomic<bool>* escape,
                   Block* detected_out,
                   GuaranteedMasks<Block>* sites,
                   SparseGuaranteedRuns<Block>* observations) {
    using Memory = PackedWordMemoryT<Block, Width>;
    const Block used = block_used_lanes<Block>(count);
    const int width = Width != 0 ? Width : plan.opts.width;

    // Workers are long-lived, so each keeps one armed scratch memory
    // (sim/pass_scratch.hpp): a chunk it already holds at this geometry
    // costs only a plane clear, any other chunk a reset and inject with no
    // malloc traffic.
    thread_local sim::detail::ArmedPassScratch<Block, Memory,
                                               InjectedBitFault>
        scratch;
    Memory& memory = scratch.arm(
        std::span<const InjectedBitFault>(faults,
                                          static_cast<std::size_t>(count)),
        plan.opts.words, plan.opts.width);
    thread_local ExpansionWalk<Block> walk;
    walk.start(plan.expansions, memory.cell_blocks());
    std::vector<Block>* site_now = nullptr;
    if (sites != nullptr) {
        sites->begin_pass();
        site_now = sites->pass_grid();
    }
    if (observations != nullptr) observations->begin_pass();

    typename Memory::ReadResult got[Width != 0 ? Width : 64];
    Block path = block_zero<Block>();  // mismatches along the current path
    Block leaves = used;               // AND of the paths of finished leaves
    // The walk's position: background k, element e, the flat id of e's
    // first read site (reads are numbered in textual order, so that is the
    // count of reads before e) and the ⇕ elements before e.
    std::size_t k = 0;
    std::size_t e = 0;
    int first_site = 0;
    int any_seen = 0;
    bool resumed = false;  // at a popped frame's element: do not re-split
    for (;;) {
        // Backgrounds stream through the packed lanes on the same memory,
        // so state carries from one background run into the next exactly
        // as in the scalar word runner.
        for (; k < plan.backgrounds.size();
             ++k, e = 0, first_site = 0, any_seen = 0) {
            const std::uint64_t b0 = plan.backgrounds[k].bits;
            const std::uint64_t b1 = plan.backgrounds[k].complement().bits;
            for (; e < plan.test.size(); ++e) {
                const auto& element = plan.test[e];
                bool desc = element.order == march::AddressOrder::Descending;
                if (element.order == march::AddressOrder::Any) {
                    const int j = any_seen++;
                    if (k == 0 && !resumed &&
                        walk.branch(j, e, first_site, memory, path)) {
                        if (sites != nullptr) sites->mark();
                        if (observations != nullptr) observations->mark();
                    }
                    resumed = false;
                    desc = walk.descending(j);
                }
                const int n = plan.opts.words;
                int site = first_site;
                for (int step = 0; step < n; ++step) {
                    const int word = desc ? n - 1 - step : step;
                    site = first_site;
                    for (const march::MarchOp& op : element.ops) {
                        switch (op.kind) {
                            case march::OpKind::Write:
                                memory.write(word, op.value ? b1 : b0);
                                break;
                            case march::OpKind::Wait:
                                memory.wait();
                                break;
                            case march::OpKind::Read: {
                                const auto site_index =
                                    static_cast<std::size_t>(site++);
                                const std::uint64_t expected =
                                    op.value ? b1 : b0;
                                memory.read(word, got);
                                Block site_mask = block_zero<Block>();
                                for (int bit = 0; bit < width; ++bit) {
                                    const Block expmask = block_fill<Block>(
                                        ((expected >> bit) & 1u) != 0);
                                    const Block mismatch =
                                        got[bit].known &
                                        (got[bit].value ^ expmask) & used;
                                    if (block_none(mismatch)) continue;
                                    path |= mismatch;
                                    site_mask |= mismatch;
                                    // A site reads each word once per
                                    // background per path, so this (word,
                                    // bit) key is fresh — the append-once
                                    // invariant the sparse runs intersect
                                    // under.
                                    if (observations != nullptr)
                                        observations->append(
                                            word_site_index(plan, k,
                                                            site_index),
                                            word, bit, mismatch);
                                }
                                if (site_now != nullptr &&
                                    !block_none(site_mask))
                                    (*site_now)[word_site_index(
                                        plan, k, site_index)] |= site_mask;
                                break;
                            }
                        }
                    }
                }
                first_site = site;
            }
        }

        // A leaf: one ⇕ choice (or a set agreeing on every bit) is done.
        leaves &= path;
        if (sites != nullptr) sites->commit_pass();
        if (observations != nullptr) observations->commit_pass();
        if (escape != nullptr) {
            if (!(leaves == used)) {
                escape->store(true, std::memory_order_relaxed);
                break;
            }
            if (escape->load(std::memory_order_relaxed)) break;
        }
        if (walk.done()) break;
        const auto frame = walk.backtrack(memory, path);
        if (sites != nullptr) sites->rollback();
        if (observations != nullptr) observations->rollback();
        k = 0;
        e = frame.element;
        first_site = frame.first_site;
        any_seen = frame.any_index;
        resumed = true;
    }
    *detected_out = leaves;
}

template <typename Block>
std::vector<bool> word_detects(
    const WordPlan& plan, WordPassFn<Block> pass,
    std::span<const InjectedBitFault> population) {
    std::vector<bool> result(population.size(), false);
    if (population.empty()) return result;
    const std::size_t chunks = block_chunk_total<Block>(population.size());
    const auto per = static_cast<std::size_t>(block_fault_lanes<Block>);

    // One work item per chunk, each writing its own slot: identical
    // results for any worker count.
    std::vector<Block> detected(chunks);
    plan.pool->parallel_for(chunks, [&](std::size_t c, unsigned) {
        pass(plan, population.data() + c * per,
             block_chunk_count<Block>(population.size(), c), nullptr,
             &detected[c], nullptr, nullptr);
    });

    for (std::size_t c = 0; c < chunks; ++c) {
        const int count = block_chunk_count<Block>(population.size(), c);
        for (int i = 0; i < count; ++i)
            result[c * per + static_cast<std::size_t>(i)] =
                block_test(detected[c], fault_lane(i));
    }
    return result;
}

template <typename Block>
bool word_detects_all(const WordPlan& plan, WordPassFn<Block> pass,
                      std::span<const InjectedBitFault> population) {
    if (population.empty()) return true;
    const std::size_t chunks = block_chunk_total<Block>(population.size());
    const auto per = static_cast<std::size_t>(block_fault_lanes<Block>);

    // The pass raises `escape` at an escaping leaf, and every chunk's walk
    // stops at its next leaf once it is raised.
    std::atomic<bool> escape{false};
    plan.pool->parallel_for(chunks, [&](std::size_t c, unsigned) {
        if (escape.load(std::memory_order_relaxed)) return;
        Block detected = block_zero<Block>();
        pass(plan, population.data() + c * per,
             block_chunk_count<Block>(population.size(), c), &escape,
             &detected, nullptr, nullptr);
    });
    return !escape.load(std::memory_order_relaxed);
}

/// The trace sinks of one pass: the dense (background, site) read grid and
/// the sparse (background, site, word, bit) observation runs. word_run
/// keeps one pair per thread, like the pass's ArmedPassScratch and
/// ExpansionWalk, and re-arms it per chunk, so a query allocates no grid.
/// This rests on one invariant: neither a pass nor the extraction that
/// reads the sinks issues a query, so nothing on this thread can re-arm
/// them between a chunk's pass and the end of its extraction.
template <typename Block>
struct TraceSinks {
    GuaranteedMasks<Block> sites;
    SparseGuaranteedRuns<Block> observations;

    /// This thread's pair.
    static TraceSinks& local() {
        thread_local TraceSinks sinks;
        return sinks;
    }
};

/// Fans one chunk's guaranteed grids out into its `count` per-fault
/// traces, `out[i]` for fault lane fault_lane(i). Entry-major: lane-major
/// probing would undo the sparse win (O(lanes · words · width) per coord),
/// so each (background, site) run is walked once and every entry's lane
/// mask is fanned out. Coordinates ascend (background, site) and runs are
/// sorted by (word, bit), so each trace sees its words in ascending order —
/// the canonical trace order. A first, counting walk over the same grids
/// gives each trace its exact number of reads and of (background, site,
/// word) observations, so every vector is sized once.
template <typename Block>
void word_emit_chunk(const WordPlan& plan, const TraceSinks<Block>& sinks,
                     const Block& detected, int count, WordRunTrace* out) {
    constexpr int kLanes = sim::block_lane_count<Block>;
    const auto lane_trace = [&](int lane) -> WordRunTrace& {
        // Inverse of fault_lane: chunk index of a fault lane.
        return out[(lane / sim::kLaneCount) * sim::kChunkLanes +
                   lane % sim::kLaneCount - 1];
    };
    std::uint32_t reads[kLanes] = {};
    std::uint32_t observations[kLanes] = {};
    const std::size_t coords = sinks.sites.size();
    for (std::size_t coord = 0; coord < coords; ++coord) {
        sim::for_each_lane(sinks.sites.guaranteed(coord),
                           [&](int lane) { ++reads[lane]; });
        // One observation per (lane, word) of the run: OR the lanes of
        // each word's entries together and count each lane once.
        const auto& run = sinks.observations.run(coord);
        for (std::size_t i = 0; i < run.size();) {
            Block lanes = block_zero<Block>();
            const std::int32_t word = run[i].word;
            for (; i < run.size() && run[i].word == word; ++i)
                lanes |= run[i].lanes;
            sim::for_each_lane(lanes, [&](int lane) { ++observations[lane]; });
        }
    }
    for (int i = 0; i < count; ++i) {
        const int lane = fault_lane(i);
        out[i].detected = block_test(detected, lane);
        out[i].failing_reads.reserve(reads[lane]);
        out[i].failing_observations.reserve(observations[lane]);
    }

    // Each lane keeps one open (word, bits) accumulator, flushed when the
    // run moves that lane to a new word and once more when the run ends.
    struct LaneAcc {
        std::int32_t word{-1};
        std::uint64_t bits{0};
    };
    LaneAcc acc[kLanes];
    for (std::size_t k = 0; k < plan.backgrounds.size(); ++k)
        for (std::size_t s = 0; s < plan.sites.size(); ++s) {
            const std::size_t coord = word_site_index(plan, k, s);
            const int background = static_cast<int>(k);
            const sim::ReadSite& site = plan.sites[s];
            sim::for_each_lane(sinks.sites.guaranteed(coord), [&](int lane) {
                lane_trace(lane).failing_reads.push_back({background, site});
            });
            Block dirty = block_zero<Block>();
            for (const auto& entry : sinks.observations.run(coord)) {
                sim::for_each_lane(entry.lanes, [&](int lane) {
                    LaneAcc& a = acc[lane];
                    if (a.word != entry.word) {
                        if (a.word >= 0)
                            lane_trace(lane).failing_observations.push_back(
                                {background, site, a.word, a.bits});
                        a.word = entry.word;
                        a.bits = 0;
                    }
                    a.bits |= std::uint64_t{1} << entry.bit;
                });
                dirty |= entry.lanes;
            }
            sim::for_each_lane(dirty, [&](int lane) {
                LaneAcc& a = acc[lane];
                lane_trace(lane).failing_observations.push_back(
                    {background, site, a.word, a.bits});
                a.word = -1;
                a.bits = 0;
            });
        }
}

template <typename Block>
std::vector<WordRunTrace> word_run(
    const WordPlan& plan, WordPassFn<Block> pass,
    std::span<const InjectedBitFault> population) {
    std::vector<WordRunTrace> result(population.size());
    if (population.empty()) return result;
    const std::size_t chunks = block_chunk_total<Block>(population.size());
    const auto per = static_cast<std::size_t>(block_fault_lanes<Block>);
    const std::size_t coords = plan.backgrounds.size() * plan.sites.size();

    // Chunk-wise sharding: each item walks every ⇕ choice itself and
    // writes a disjoint result slice.
    plan.pool->parallel_for(chunks, [&](std::size_t c, unsigned) {
        const std::size_t base = c * per;
        const int count = block_chunk_count<Block>(population.size(), c);
        TraceSinks<Block>& sinks = TraceSinks<Block>::local();
        sinks.sites.reset(coords, block_used_lanes<Block>(count));
        sinks.observations.reset(coords);
        Block detected = block_zero<Block>();
        pass(plan, population.data() + base, count, nullptr, &detected,
             &sinks.sites, &sinks.observations);
        word_emit_chunk<Block>(plan, sinks, detected, count,
                               result.data() + base);
    });
    return result;
}

/// Pass-function getters, defined in word_kernels.cpp so that only that
/// TU compiles the pass bodies. `width` is the word width of the plan: 1
/// hands out the compile-time width-1 pass, any other width the
/// run-time-width one.
///
/// generic_pass is the baseline-codegen instantiation (Block = LaneMask,
/// LaneBlock<4> or LaneBlock<8>); every W=1 and W=4 job runs it.
template <typename Block>
[[nodiscard]] WordPassFn<Block> generic_pass(int width);

/// The pass of a W=8 job: the zmm wrapper when sim::active_lane_isa() is
/// Avx512, generic_pass otherwise. Both are bit-identical.
[[nodiscard]] WordPassFn<LaneBlock<8>> word_pass_w8(int width);

}  // namespace mtg::word::detail
