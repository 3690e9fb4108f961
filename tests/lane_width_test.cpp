/// \file lane_width_test.cpp
/// Lane-width correctness: the packed kernels must produce bit-identical
/// detects / detects_all / traces at every lane-block width W ∈ {1, 4, 8}
/// (every width is runnable on every host — wide blocks without the
/// matching ISA just run generic codegen), for bit-universe queries (the
/// width-1 word pass, reached through Engine sessions) and word-universe
/// runners alike, for every fault kind, plus the pure dispatch rules
/// behind CPUID width resolution and the per-population clamp.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "sim/lane_dispatch.hpp"
#include "sim/march_runner.hpp"
#include "util/thread_pool.hpp"
#include "word/background.hpp"
#include "word/word_batch_runner.hpp"
#include "word/word_march.hpp"

namespace mtg {
namespace {

using fault::FaultKind;

const std::vector<int> kWidths{1, 4, 8};

/// A packed bit session pinned to `pool` and lane width `width`.
engine::Engine bit_session(util::ThreadPool& pool, int width) {
    return engine::Engine(
        engine::EngineConfig{.pool = &pool, .lane_width = width});
}

/// The detects-all verdict of an explicit bit population on `session`.
bool detects_all(const engine::Engine& session, const march::MarchTest& test,
                 const std::vector<sim::InjectedFault>& population,
                 const sim::RunOptions& opts) {
    engine::Query query;
    query.test = test;
    query.universe = engine::BitUniverse{opts};
    query.want = engine::Want::DetectsAll;
    query.bit_faults = population;
    return session.run(query).all;
}

std::vector<FaultKind> all_kinds() {
    return {FaultKind::Saf0,      FaultKind::Saf1,      FaultKind::TfUp,
            FaultKind::TfDown,    FaultKind::Wdf0,      FaultKind::Wdf1,
            FaultKind::Rdf0,      FaultKind::Rdf1,      FaultKind::Drdf0,
            FaultKind::Drdf1,     FaultKind::Irf0,      FaultKind::Irf1,
            FaultKind::Drf0,      FaultKind::Drf1,      FaultKind::CfinUp,
            FaultKind::CfinDown,  FaultKind::CfidUp0,   FaultKind::CfidUp1,
            FaultKind::CfidDown0, FaultKind::CfidDown1, FaultKind::CfstS0F0,
            FaultKind::CfstS0F1,  FaultKind::CfstS1F0,  FaultKind::CfstS1F1,
            FaultKind::Af,        FaultKind::AfMap};
}

/// Bit detects / detects_all / traces must agree with the W=1 lane block
/// for every fault kind; W=1 itself is proven against the scalar oracle by
/// packed_sim_test, so transitively every width matches the oracle.
TEST(LaneWidth, BitKernelBitIdenticalAcrossWidthsForEveryKind) {
    util::ThreadPool serial(1);
    const auto& test = march::march_ss();  // two ⇕ elements, waits, rich mix
    const sim::RunOptions opts{.memory_size = 14, .max_any_expansion = 4};
    for (FaultKind kind : all_kinds()) {
        const auto population = sim::full_population(kind, opts.memory_size);
        ASSERT_FALSE(population.empty());

        const engine::Engine scalar = bit_session(serial, 1);
        const auto expected_detects = scalar.detects(test, population, opts);
        const bool expected_all = detects_all(scalar, test, population, opts);
        const auto expected_traces = scalar.traces(test, population, opts);

        for (int width : kWidths) {
            const engine::Engine session = bit_session(serial, width);
            EXPECT_EQ(session.detects(test, population, opts),
                      expected_detects)
                << "kind " << fault::fault_kind_name(kind) << " width " << width;
            EXPECT_EQ(detects_all(session, test, population, opts),
                      expected_all)
                << "kind " << fault::fault_kind_name(kind) << " width " << width;
            const auto traces = session.traces(test, population, opts);
            ASSERT_EQ(traces.size(), expected_traces.size());
            for (std::size_t i = 0; i < traces.size(); ++i) {
                EXPECT_EQ(traces[i].detected, expected_traces[i].detected)
                    << "kind " << fault::fault_kind_name(kind) << " width "
                    << width << " fault " << i;
                EXPECT_EQ(traces[i].failing_reads,
                          expected_traces[i].failing_reads)
                    << "kind " << fault::fault_kind_name(kind) << " width "
                    << width << " fault " << i;
                EXPECT_EQ(traces[i].failing_observations,
                          expected_traces[i].failing_observations)
                    << "kind " << fault::fault_kind_name(kind) << " width "
                    << width << " fault " << i;
            }
        }
    }
}

/// A population spanning several W=8 chunks (n=24 -> 552 two-cell
/// placements > 504) exercises full blocks, the partial tail chunk and
/// the chunk-index reduction at every width, cross-checked against the
/// scalar per-fault oracle.
TEST(LaneWidth, MultiChunkPopulationsMatchTheScalarOracle) {
    util::ThreadPool serial(1);
    const auto& test = march::march_c_minus();
    const sim::RunOptions opts{.memory_size = 24, .max_any_expansion = 6};
    const auto population =
        sim::full_population(FaultKind::CfidUp0, opts.memory_size);
    ASSERT_GT(population.size(), 504u);

    std::vector<bool> oracle;
    oracle.reserve(population.size());
    for (const auto& fault : population)
        oracle.push_back(sim::detects(test, fault, opts));

    for (int width : kWidths) {
        const engine::Engine session = bit_session(serial, width);
        EXPECT_EQ(session.detects(test, population, opts), oracle)
            << "width " << width;
        EXPECT_EQ(detects_all(session, test, population, opts),
                  std::find(oracle.begin(), oracle.end(), false) ==
                      oracle.end())
            << "width " << width;
    }
}

/// Word kernel: detects / detects_all bit-identical across widths for
/// every kind, with the W=1 kernel anchored to the scalar word oracle.
TEST(LaneWidth, WordKernelBitIdenticalAcrossWidthsForEveryKind) {
    util::ThreadPool serial(1);
    const auto& test = march::march_c_minus();
    word::WordRunOptions opts;
    opts.words = 6;
    opts.width = 4;  // counting backgrounds need a power-of-two width
    const auto backgrounds = word::counting_backgrounds(opts.width);
    for (FaultKind kind : all_kinds()) {
        const auto population = word::coverage_population(kind, opts);
        ASSERT_FALSE(population.empty());

        const word::WordBatchRunner scalar(test, backgrounds, opts, &serial,
                                           1);
        const auto expected_detects = scalar.detects(population);
        const bool expected_all = scalar.detects_all(population);
        // Spot-anchor the W=1 kernel to the scalar oracle on the first
        // few placements (full per-kind equivalence is word_batch_test's
        // job).
        for (std::size_t i = 0; i < population.size() && i < 3; ++i)
            ASSERT_EQ(expected_detects[i],
                      word::detects(test, backgrounds, population[i], opts))
                << "kind " << fault::fault_kind_name(kind) << " fault " << i;

        for (int width : kWidths) {
            const word::WordBatchRunner runner(test, backgrounds, opts,
                                               &serial, width);
            ASSERT_EQ(runner.lane_width(), width);
            EXPECT_EQ(runner.detects(population), expected_detects)
                << "kind " << fault::fault_kind_name(kind) << " width " << width;
            EXPECT_EQ(runner.detects_all(population), expected_all)
                << "kind " << fault::fault_kind_name(kind) << " width " << width;
        }
    }
}

/// The wide kernels must stay bit-identical when the grid is sharded
/// across workers (per-worker accumulators merge by AND, stealing pool
/// hands out ranges nondeterministically).
TEST(LaneWidth, WideKernelsAreDeterministicAcrossWorkerCounts) {
    const auto& test = march::march_c_minus();
    const sim::RunOptions opts{.memory_size = 16, .max_any_expansion = 6};
    const auto population =
        sim::full_population(FaultKind::CfidDown1, opts.memory_size);

    util::ThreadPool serial(1);
    for (int width : kWidths) {
        const engine::Engine reference = bit_session(serial, width);
        const auto expected = reference.detects(test, population, opts);
        for (unsigned workers : {2u, 5u}) {
            util::ThreadPool pool(workers);
            const engine::Engine session = bit_session(pool, width);
            EXPECT_EQ(session.detects(test, population, opts), expected)
                << "width " << width << " workers " << workers;
            EXPECT_EQ(detects_all(session, test, population, opts),
                      detects_all(reference, test, population, opts))
                << "width " << width << " workers " << workers;
        }
    }
}

TEST(LaneDispatch, ResolvesWidthFromCpuid) {
    EXPECT_EQ(sim::resolve_lane_width(false, false), 1);
    EXPECT_EQ(sim::resolve_lane_width(true, false), 4);
    EXPECT_EQ(sim::resolve_lane_width(true, true), 8);
    EXPECT_EQ(sim::resolve_lane_width(false, true), 8);
    EXPECT_EQ(sim::active_lane_width(),
              sim::active_lane_width());  // cached and stable
    EXPECT_TRUE(sim::lane_width_supported(sim::active_lane_width()));
}

TEST(LaneDispatch, ClampPicksTheNarrowestFillingWidth) {
    // <= 3 plane words of faults: scalar chunks win.
    EXPECT_EQ(sim::clamp_lane_width(8, 0), 1);
    EXPECT_EQ(sim::clamp_lane_width(8, 63), 1);
    EXPECT_EQ(sim::clamp_lane_width(8, 189), 1);
    // 4+ words: full-width blocks (bounded by the runner's width).
    EXPECT_EQ(sim::clamp_lane_width(8, 190), 8);
    EXPECT_EQ(sim::clamp_lane_width(8, 441), 8);
    EXPECT_EQ(sim::clamp_lane_width(8, 504), 8);
    EXPECT_EQ(sim::clamp_lane_width(8, 100000), 8);
    EXPECT_EQ(sim::clamp_lane_width(4, 100000), 4);
    EXPECT_EQ(sim::clamp_lane_width(1, 100000), 1);
    // An AVX2 host's width keeps the same three-word cut.
    EXPECT_EQ(sim::clamp_lane_width(4, 189), 1);
    EXPECT_EQ(sim::clamp_lane_width(4, 190), 4);
}

/// Constructing a runner with an explicit width keeps that width exact
/// even for tiny populations (the differential tests above rely on it),
/// including the width-1 plans bit-universe queries run on.
TEST(LaneDispatch, ExplicitRunnerWidthIsNotClamped) {
    util::ThreadPool serial(1);
    const auto& test = march::find_march_test("MATS++").test;
    const word::WordRunOptions opts{
        .words = 4, .width = 1, .max_any_expansion = 4};
    const auto backgrounds = word::solid_background(1);
    const auto population = word::coverage_population(FaultKind::Saf0, opts);
    const word::WordBatchRunner w8(test, backgrounds, opts, &serial, 8);
    const word::WordBatchRunner w1(test, backgrounds, opts, &serial, 1);
    EXPECT_EQ(w8.lane_width(), 8);
    EXPECT_EQ(w1.lane_width(), 1);
    EXPECT_EQ(w8.detects(population), w1.detects(population));
}

}  // namespace
}  // namespace mtg
