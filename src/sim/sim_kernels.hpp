#pragma once

/// \file sim_kernels.hpp
/// Width-generic grid kernels behind sim::BatchRunner.
///
/// The kernels are templates over the lane-block type (LaneMask,
/// LaneBlock<4>, LaneBlock<8>): one `sim_run_pass` executes a whole March
/// test against a chunk of 63·W faults under one fixed ⇕ choice, and the
/// drivers shard the (chunk × ⇕-expansion) work grid across a
/// util::ThreadPool exactly like PR 2 — atomic-free per-worker AND
/// accumulators for detects(), an atomic escape flag for detects_all(),
/// chunk-wise disjoint result slices for run(). Because each plane word of
/// a block is bit-identical to a scalar chunk, every width produces the
/// same per-fault results for any worker count.
///
/// The hot pass is reached through a `SimPassFn` function pointer so the
/// runner can substitute the `target("avx2"/"avx512f")`-attributed
/// wrappers from lane_kernels.cpp when the host CPU supports them; the
/// template instantiation used as the fallback is plain C++ and safe on
/// any host.

#include <algorithm>
#include <atomic>
#include <span>
#include <vector>

#include "march/march_test.hpp"
#include "sim/lane_block.hpp"
#include "sim/lane_dispatch.hpp"
#include "sim/march_runner.hpp"
#include "sim/packed_memory.hpp"
#include "sim/pass_scratch.hpp"
#include "sim/trace_masks.hpp"
#include "util/thread_pool.hpp"

namespace mtg::sim::detail {

/// Everything a BatchRunner precomputes once per March test; shared by the
/// kernels of every width.
struct SimPlan {
    march::MarchTest test;
    RunOptions opts;
    util::ThreadPool* pool{nullptr};
    std::vector<unsigned> expansions;
    std::vector<ReadSite> sites;
    std::vector<std::vector<int>> site_id;  ///< (element, op) -> flat site
};

/// One full test execution of one chunk under one fixed ⇕ choice. The
/// detection mask comes back through `detected_out` rather than by value:
/// the AVX-attributed wrappers and their generic callers disagree on the
/// register convention for returning a 256/512-bit vector, so the
/// cross-ISA call boundary must stay pointer-only.
template <typename Block>
using SimPassFn = void (*)(const SimPlan&, const InjectedFault*, int,
                           unsigned, Block*, std::vector<Block>*,
                           std::vector<Block>*);

/// Writes the lanes with at least one definite read mismatch to
/// `*detected_out`; when site_now/obs_now are non-null they receive the
/// per-site and per-(site, cell) mismatch masks of this single pass.
template <typename Block>
void sim_run_pass(const SimPlan& plan, const InjectedFault* faults,
                  int count, unsigned choice, Block* detected_out,
                  std::vector<Block>* site_now, std::vector<Block>* obs_now) {
    const int n = plan.opts.memory_size;
    const Block used = block_used_lanes<Block>(count);

    // Pool workers are long-lived, so each keeps one armed scratch memory
    // (pass_scratch.hpp): a chunk it already holds costs only a plane
    // clear, any other chunk a reset and inject with no malloc traffic.
    thread_local ArmedPassScratch<Block, PackedSimMemoryT<Block>,
                                  InjectedFault, int>
        scratch;
    PackedSimMemoryT<Block>& memory = scratch.arm(
        std::span<const InjectedFault>(faults,
                                       static_cast<std::size_t>(count)),
        n);

    Block detected = block_zero<Block>();
    int any_seen = 0;
    for (std::size_t e = 0; e < plan.test.size(); ++e) {
        const auto& element = plan.test[e];
        bool desc = element.order == march::AddressOrder::Descending;
        if (element.order == march::AddressOrder::Any) {
            desc = ((choice >> any_seen) & 1u) != 0;
            ++any_seen;
        }
        for (int step = 0; step < n; ++step) {
            const int cell = desc ? n - 1 - step : step;
            for (std::size_t o = 0; o < element.ops.size(); ++o) {
                const march::MarchOp& op = element.ops[o];
                switch (op.kind) {
                    case march::OpKind::Write:
                        memory.write(cell, op.value);
                        break;
                    case march::OpKind::Wait:
                        memory.wait();
                        break;
                    case march::OpKind::Read: {
                        const auto got = memory.read(cell);
                        const Block expected =
                            block_fill<Block>(op.value != 0);
                        // Only definite mismatches detect (X cannot be
                        // guaranteed to differ from the expected value).
                        const Block mismatch =
                            got.known & (got.value ^ expected) & used;
                        if (block_none(mismatch)) break;
                        detected |= mismatch;
                        if (site_now == nullptr) break;
                        const auto sid =
                            static_cast<std::size_t>(plan.site_id[e][o]);
                        (*site_now)[sid] |= mismatch;
                        if (obs_now != nullptr)
                            (*obs_now)[sid * static_cast<std::size_t>(n) +
                                       static_cast<std::size_t>(cell)] |=
                                mismatch;
                        break;
                    }
                }
            }
        }
    }
    *detected_out = detected;
}

/// Per-site × per-cell failing-lane masks of one population chunk,
/// already intersected across every ⇕ expansion.
template <typename Block>
struct SimChunkResult {
    Block detected{};
    std::vector<Block> site_fail;         ///< [site]
    std::vector<Block> observation_fail;  ///< [site * n + cell]
};

template <typename Block>
SimChunkResult<Block> sim_run_chunk(const SimPlan& plan,
                                    SimPassFn<Block> pass,
                                    const InjectedFault* faults, int count) {
    MTG_EXPECTS(count > 0 && count <= block_fault_lanes<Block>);
    const int n = plan.opts.memory_size;
    const Block used = block_used_lanes<Block>(count);

    SimChunkResult<Block> out;
    out.detected = used;
    GuaranteedMasks<Block> sites(plan.sites.size(), used);
    GuaranteedMasks<Block> observations(
        plan.sites.size() * static_cast<std::size_t>(n), used);

    Block pass_detected = block_zero<Block>();
    for (unsigned choice : plan.expansions) {
        sites.begin_pass();
        observations.begin_pass();
        pass(plan, faults, count, choice, &pass_detected,
             sites.pass_grid(), observations.pass_grid());
        out.detected &= pass_detected;
        sites.commit_pass();
        observations.commit_pass();
    }

    out.site_fail.resize(sites.size());
    for (std::size_t s = 0; s < sites.size(); ++s)
        out.site_fail[s] = sites.guaranteed(s);
    out.observation_fail.resize(observations.size());
    for (std::size_t k = 0; k < observations.size(); ++k)
        out.observation_fail[k] = observations.guaranteed(k);
    return out;
}

template <typename Block>
std::vector<bool> sim_detects(const SimPlan& plan, SimPassFn<Block> pass,
                              std::span<const InjectedFault> population) {
    std::vector<bool> result(population.size(), false);
    if (population.empty()) return result;
    const std::size_t chunks = block_chunk_total<Block>(population.size());
    const std::size_t expansions = plan.expansions.size();
    const auto per = static_cast<std::size_t>(block_fault_lanes<Block>);

    // Fused (chunk × expansion) grid: every work item is one full test
    // pass; worker w ANDs its passes into acc[w], and the per-worker
    // accumulators are intersected once the grid drains. AND is
    // commutative and associative, so the result is independent of how
    // the items were distributed.
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
bool sim_detects_all(const SimPlan& plan, SimPassFn<Block> pass,
                     std::span<const InjectedFault> population) {
    if (population.empty()) return true;
    const std::size_t chunks = block_chunk_total<Block>(population.size());
    const std::size_t expansions = plan.expansions.size();
    const auto per = static_cast<std::size_t>(block_fault_lanes<Block>);

    // A lane escapes as soon as ONE expansion misses it, so any work item
    // observing an incomplete detection mask settles the answer; the flag
    // lets the remaining items return immediately.
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

template <typename Block>
std::vector<RunTrace> sim_run(const SimPlan& plan, SimPassFn<Block> pass,
                              std::span<const InjectedFault> population) {
    const int n = plan.opts.memory_size;
    std::vector<RunTrace> result(population.size());
    if (population.empty()) return result;
    const std::size_t chunks = block_chunk_total<Block>(population.size());
    const auto per = static_cast<std::size_t>(block_fault_lanes<Block>);

    // Chunk-wise sharding: each item expands every ⇕ choice itself (the
    // per-(site, cell) masks would make a fused grid's per-worker state
    // quadratic) and writes a disjoint slice of the result.
    plan.pool->parallel_for(chunks, [&](std::size_t c, unsigned) {
        const std::size_t base = c * per;
        const int count = block_chunk_count<Block>(population.size(), c);
        const SimChunkResult<Block> chunk =
            sim_run_chunk<Block>(plan, pass, population.data() + base,
                                 count);
        for (int i = 0; i < count; ++i) {
            const int lane = fault_lane(i);
            RunTrace& trace = result[base + static_cast<std::size_t>(i)];
            trace.detected = block_test(chunk.detected, lane);
            for (std::size_t s = 0; s < plan.sites.size(); ++s) {
                if (block_test(chunk.site_fail[s], lane))
                    trace.failing_reads.push_back(plan.sites[s]);
                for (int cell = 0; cell < n; ++cell)
                    if (block_test(
                            chunk.observation_fail
                                [s * static_cast<std::size_t>(n) +
                                 static_cast<std::size_t>(cell)],
                            lane))
                        trace.failing_observations.push_back(
                            {plan.sites[s], cell});
            }
        }
    });
    return result;
}

/// Pass-function getters: the widest safe codegen for each block width —
/// the `target`-attributed AVX wrapper when the host CPU has the feature,
/// the generic-codegen template instantiation otherwise. Defined in
/// lane_kernels.cpp.
[[nodiscard]] SimPassFn<LaneMask> sim_pass_w1();
[[nodiscard]] SimPassFn<LaneBlock<4>> sim_pass_w4();
/// The W=8 getter picks between the zmm wrapper, the 256-bit (ymm-pair)
/// clone and the generic instantiation per the resolved LaneIsa.
[[nodiscard]] SimPassFn<LaneBlock<8>> sim_pass_w8(
    LaneIsa isa = LaneIsa::Avx512);

}  // namespace mtg::sim::detail
