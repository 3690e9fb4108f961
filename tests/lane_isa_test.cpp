/// \file lane_isa_test.cpp
/// W=8 codegen dispatch: the W=8 pass has two codegens of one template,
/// the `target("avx512f")` wrapper and the generic instantiation. One rule
/// (sim::active_lane_isa) hands out the wrapper for jobs of at least
/// kZmmWorkItemThreshold pass executions on AVX-512F hosts, and both
/// codegens must give bit-identical verdicts and traces, for the width-1
/// pass bit queries run and the run-time-width word pass. The W=4 and W=1
/// session comparisons are lane_width_test's.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "sim/lane_dispatch.hpp"
#include "sim/march_runner.hpp"
#include "util/thread_pool.hpp"
#include "word/background.hpp"
#include "word/word_batch_runner.hpp"
#include "word/word_kernels.hpp"
#include "word/word_march.hpp"

namespace mtg {
namespace {

using fault::FaultKind;
using sim::LaneIsa;
using Block = sim::LaneBlock<8>;

TEST(LaneIsaDispatch, ZmmOnlyForLargeJobsOnAvx512Hosts) {
    const std::size_t small = sim::kZmmWorkItemThreshold - 1;
    const std::size_t large = sim::kZmmWorkItemThreshold;
    const LaneIsa wide =
        sim::cpu_has_avx512f() ? LaneIsa::Avx512 : LaneIsa::Generic;
    EXPECT_EQ(sim::active_lane_isa(large), wide);
    EXPECT_EQ(sim::active_lane_isa(100 * large), wide);
    EXPECT_EQ(sim::active_lane_isa(small), LaneIsa::Generic);
    EXPECT_EQ(sim::active_lane_isa(0), LaneIsa::Generic);
    // The W=8 getter follows the rule, for both word widths.
    for (int bits : {1, 8}) {
        const auto generic = word::detail::generic_pass<Block>(bits);
        EXPECT_EQ(word::detail::word_pass_w8(bits, small), generic);
        EXPECT_EQ(word::detail::word_pass_w8(bits, large) != generic,
                  sim::cpu_has_avx512f())
            << "word width " << bits;
    }
}

word::detail::WordPlan make_plan(const march::MarchTest& test,
                                 std::vector<word::Background> backgrounds,
                                 const word::WordRunOptions& opts,
                                 util::ThreadPool& pool) {
    word::detail::WordPlan plan;
    plan.test = test;
    plan.backgrounds = std::move(backgrounds);
    plan.opts = opts;
    plan.pool = &pool;
    plan.expansions = word::expansion_choices(test, opts);
    plan.sites = sim::read_sites(test);
    return plan;
}

/// Runs the pass word_pass_w8 hands a large job (the zmm wrapper on an
/// AVX-512F host) and `generic` through every grid driver on `plan`.
void expect_codegens_agree(const word::detail::WordPlan& plan,
                           std::span<const word::InjectedBitFault> population,
                           word::detail::WordPassFn<Block> generic) {
    const auto zmm = word::detail::word_pass_w8(plan.opts.width,
                                                sim::kZmmWorkItemThreshold);
    EXPECT_EQ(word::detail::word_detects(plan, zmm, population),
              word::detail::word_detects(plan, generic, population));
    EXPECT_EQ(word::detail::word_detects_all(plan, zmm, population),
              word::detail::word_detects_all(plan, generic, population));
    const auto traces = word::detail::word_run(plan, zmm, population);
    const auto expected = word::detail::word_run(plan, generic, population);
    ASSERT_EQ(traces.size(), expected.size());
    for (std::size_t i = 0; i < traces.size(); ++i)
        EXPECT_EQ(traces[i], expected[i]) << "fault " << i;
}

/// The bit universe: n cells as n words of width 1 under the solid
/// background, run by the compile-time width-1 pass.
TEST(LaneIsaDifferential, BitUniverseCodegensAgree) {
    util::ThreadPool serial(1);
    const sim::RunOptions bit_opts{.memory_size = 14, .max_any_expansion = 4};
    std::vector<word::InjectedBitFault> population;
    for (const sim::InjectedFault& fault :
         sim::full_population(FaultKind::CfidUp0, bit_opts.memory_size))
        population.push_back(word::bit_view(fault));
    const auto plan = make_plan(march::march_ss(), word::solid_background(1),
                                word::bit_view(bit_opts), serial);
    expect_codegens_agree(plan, population,
                          &word::detail::word_run_pass<Block, 1>);
}

/// The word universe: the run-time-width pass, whose sparse trace runs
/// must not care which codegen filled them.
TEST(LaneIsaDifferential, WordUniverseCodegensAgree) {
    util::ThreadPool serial(1);
    const word::WordRunOptions opts{.words = 6, .width = 8};
    const auto population =
        word::coverage_population(FaultKind::CfidDown0, opts);
    const auto plan =
        make_plan(march::march_c_minus(),
                  word::counting_backgrounds(opts.width), opts, serial);
    expect_codegens_agree(plan, population,
                          &word::detail::word_run_pass<Block>);
}

}  // namespace
}  // namespace mtg
