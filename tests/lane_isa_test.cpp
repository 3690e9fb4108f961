/// \file lane_isa_test.cpp
/// LaneIsa dispatch: the W=8 pass exists in three semantically identical
/// codegen flavours — zmm wrappers (target("avx512f")), the ymm-pair
/// "256-bit clone" (target("avx2")) and the baseline-codegen template
/// instantiation — for both word widths the kernel is compiled at (the
/// width-1 pass bit queries run, and the run-time-width pass).
/// MTG_LANE_ISA / set_requested_lane_isa pick a flavour, Auto applies the
/// small-work-grid heuristic, and every flavour must be bit-identical for
/// bit and word queries alike. Mirrors lane_width_test.cpp, one level
/// down the dispatch.

#include <gtest/gtest.h>

#include <vector>

#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "sim/lane_dispatch.hpp"
#include "util/thread_pool.hpp"
#include "word/background.hpp"
#include "word/word_batch_runner.hpp"

namespace mtg {
namespace {

using fault::FaultKind;
using sim::LaneIsa;

/// RAII requested-ISA override so a failing ASSERT cannot leak a forced
/// flavour into later tests.
class RequestedIsa {
public:
    explicit RequestedIsa(LaneIsa isa) : saved_(sim::requested_lane_isa()) {
        sim::set_requested_lane_isa(isa);
    }
    ~RequestedIsa() { sim::set_requested_lane_isa(saved_); }

private:
    LaneIsa saved_;
};

TEST(LaneIsaDispatch, ParsesLaneIsaOverride) {
    EXPECT_EQ(sim::parse_lane_isa(nullptr), LaneIsa::Auto);
    EXPECT_EQ(sim::parse_lane_isa(""), LaneIsa::Auto);
    EXPECT_EQ(sim::parse_lane_isa("auto"), LaneIsa::Auto);
    EXPECT_EQ(sim::parse_lane_isa("avx512"), LaneIsa::Avx512);
    EXPECT_EQ(sim::parse_lane_isa("avx2"), LaneIsa::Avx2);
    EXPECT_EQ(sim::parse_lane_isa("generic"), LaneIsa::Generic);
    EXPECT_EQ(sim::parse_lane_isa("AVX2"), LaneIsa::Auto);  // case-sensitive
    EXPECT_EQ(sim::parse_lane_isa("avx"), LaneIsa::Auto);
    EXPECT_EQ(sim::parse_lane_isa("junk"), LaneIsa::Auto);
}

TEST(LaneIsaDispatch, ResolveHonoursForcedIsasDownTheFeatureLadder) {
    // Generic is always runnable.
    for (bool avx2 : {false, true})
        for (bool avx512 : {false, true})
            EXPECT_EQ(sim::resolve_lane_isa(LaneIsa::Generic, 1000, avx2,
                                            avx512),
                      LaneIsa::Generic);
    // Forced flavours degrade to the widest the CPU actually has — the
    // getters must never hand out an unrunnable wrapper.
    EXPECT_EQ(sim::resolve_lane_isa(LaneIsa::Avx512, 1, true, true),
              LaneIsa::Avx512);
    EXPECT_EQ(sim::resolve_lane_isa(LaneIsa::Avx512, 1, true, false),
              LaneIsa::Avx2);
    EXPECT_EQ(sim::resolve_lane_isa(LaneIsa::Avx512, 1, false, false),
              LaneIsa::Generic);
    EXPECT_EQ(sim::resolve_lane_isa(LaneIsa::Avx2, 1, true, true),
              LaneIsa::Avx2);
    EXPECT_EQ(sim::resolve_lane_isa(LaneIsa::Avx2, 1, false, true),
              LaneIsa::Generic);
}

TEST(LaneIsaDispatch, AutoPrefersTheCloneForSmallWorkGrids) {
    const std::size_t small = sim::kZmmWorkItemThreshold - 1;
    const std::size_t large = sim::kZmmWorkItemThreshold;
    // AVX-512 host: zmm for large grids, ymm clone below the threshold
    // (short bursts never amortise the frequency-license ramp).
    EXPECT_EQ(sim::resolve_lane_isa(LaneIsa::Auto, large, true, true),
              LaneIsa::Avx512);
    EXPECT_EQ(sim::resolve_lane_isa(LaneIsa::Auto, small, true, true),
              LaneIsa::Avx2);
    // AVX2-only host: always the clone.
    EXPECT_EQ(sim::resolve_lane_isa(LaneIsa::Auto, large, true, false),
              LaneIsa::Avx2);
    // AVX-512 without AVX2 (not a real host, but the ladder must hold).
    EXPECT_EQ(sim::resolve_lane_isa(LaneIsa::Auto, small, false, true),
              LaneIsa::Avx512);
    // No vector ISA at all.
    EXPECT_EQ(sim::resolve_lane_isa(LaneIsa::Auto, large, false, false),
              LaneIsa::Generic);
}

TEST(LaneIsaDispatch, RequestedIsaRoundTrips) {
    const LaneIsa original = sim::requested_lane_isa();
    {
        RequestedIsa forced(LaneIsa::Generic);
        EXPECT_EQ(sim::requested_lane_isa(), LaneIsa::Generic);
    }
    EXPECT_EQ(sim::requested_lane_isa(), original);
}

/// Every ISA flavour must produce bit-identical detects / traces for bit
/// queries, which run the width-1 word pass, at forced W=8 — same
/// template, different instruction selection. The W=4 session runs the
/// width-1 AVX2 wrapper. Flavours the host lacks degrade to a runnable
/// one, so the test is meaningful everywhere and exhaustive on AVX-512
/// CI hosts.
TEST(LaneIsaDifferential, BitKernelBitIdenticalAcrossIsas) {
    util::ThreadPool serial(1);
    const auto& test = march::march_ss();
    const sim::RunOptions opts{.memory_size = 14, .max_any_expansion = 4};
    const auto population =
        sim::full_population(FaultKind::CfidUp0, opts.memory_size);
    const auto bit_session = [&](int width) {
        return engine::Engine(
            engine::EngineConfig{.pool = &serial, .lane_width = width});
    };

    std::vector<bool> expected_detects;
    std::vector<sim::RunTrace> expected_traces;
    {
        RequestedIsa forced(LaneIsa::Generic);
        const engine::Engine session = bit_session(8);
        expected_detects = session.detects(test, population, opts);
        expected_traces = session.traces(test, population, opts);
    }
    const auto expect_same = [&](const engine::Engine& session,
                                 const char* label) {
        EXPECT_EQ(session.detects(test, population, opts), expected_detects)
            << label;
        const auto traces = session.traces(test, population, opts);
        ASSERT_EQ(traces.size(), expected_traces.size()) << label;
        for (std::size_t i = 0; i < traces.size(); ++i) {
            EXPECT_EQ(traces[i].detected, expected_traces[i].detected)
                << label << " fault " << i;
            EXPECT_EQ(traces[i].failing_reads,
                      expected_traces[i].failing_reads)
                << label << " fault " << i;
            EXPECT_EQ(traces[i].failing_observations,
                      expected_traces[i].failing_observations)
                << label << " fault " << i;
        }
    };
    for (LaneIsa isa : {LaneIsa::Avx2, LaneIsa::Avx512, LaneIsa::Auto}) {
        RequestedIsa forced(isa);
        expect_same(bit_session(8),
                    isa == LaneIsa::Avx2     ? "W8 avx2"
                    : isa == LaneIsa::Avx512 ? "W8 avx512"
                                             : "W8 auto");
    }
    expect_same(bit_session(4), "W4");
    expect_same(bit_session(1), "W1");
}

/// Same differential on the word kernel — the clone covers both pass
/// families, and the sparse trace extraction must not care which flavour
/// filled the runs.
TEST(LaneIsaDifferential, WordKernelBitIdenticalAcrossIsas) {
    util::ThreadPool serial(1);
    const auto& test = march::march_c_minus();
    word::WordRunOptions opts;
    opts.words = 6;
    opts.width = 8;
    const auto backgrounds = word::counting_backgrounds(opts.width);
    const auto population =
        word::coverage_population(FaultKind::CfidDown0, opts);

    std::vector<word::WordRunTrace> expected;
    {
        RequestedIsa forced(LaneIsa::Generic);
        expected = word::WordBatchRunner(test, backgrounds, opts, &serial, 8)
                       .run(population);
    }
    for (LaneIsa isa : {LaneIsa::Avx2, LaneIsa::Avx512, LaneIsa::Auto}) {
        RequestedIsa forced(isa);
        const auto traces =
            word::WordBatchRunner(test, backgrounds, opts, &serial, 8)
                .run(population);
        ASSERT_EQ(traces.size(), expected.size());
        for (std::size_t i = 0; i < traces.size(); ++i)
            EXPECT_EQ(traces[i], expected[i])
                << "isa " << static_cast<int>(isa) << " placement " << i;
    }
}

}  // namespace
}  // namespace mtg
