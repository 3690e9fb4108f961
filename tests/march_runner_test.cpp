#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "march/library.hpp"
#include "march/parser.hpp"
#include "sim/march_runner.hpp"

namespace mtg::sim {
namespace {

using fault::FaultKind;
using march::parse_march;

TEST(ReadSites, EnumeratesInTextualOrder) {
    const auto test = parse_march("{~(w0); ^(r0,w1); v(r1,w0,r0)}");
    const auto sites = read_sites(test);
    ASSERT_EQ(sites.size(), 3u);
    EXPECT_EQ(sites[0], (ReadSite{1, 0}));
    EXPECT_EQ(sites[1], (ReadSite{2, 0}));
    EXPECT_EQ(sites[2], (ReadSite{2, 2}));
}

TEST(RunOnce, FaultFreeRunDetectsNothing) {
    const auto test = march::march_c_minus();
    const RunTrace trace = run_once(test, {}, 0u);
    EXPECT_FALSE(trace.detected);
    EXPECT_TRUE(trace.failing_reads.empty());
}

TEST(RunOnce, ReportsFailingReadSite) {
    const auto test = parse_march("{~(w0); ~(r0)}");
    const RunTrace trace =
        run_once(test, {InjectedFault::single(FaultKind::Saf1, 3)}, 0u);
    EXPECT_TRUE(trace.detected);
    ASSERT_EQ(trace.failing_reads.size(), 1u);
    EXPECT_EQ(trace.failing_reads[0], (ReadSite{1, 0}));
}

TEST(Detects, RequiresDetectionUnderEveryAnyOrderExpansion) {
    // This test detects the fault only when the second element happens to
    // run ascending; with ⇕ it is not guaranteed.
    const auto asc_only = parse_march("{~(w0); ^(r0,w1); ~(r1)}");
    // CFid<^,0> with aggressor 1 (low) and victim 2 (high): ascending
    // sweep of element 2 excites (w1 on cell 1 while cell 2 still 0...).
    const InjectedFault f =
        InjectedFault::coupling(FaultKind::CfidUp0, 1, 2);
    // MATS-like test without direction guarantees cannot guarantee
    // detection of CFids in general; March C- can.
    EXPECT_TRUE(detects(march::march_c_minus(), f));
    (void)asc_only;
}

TEST(Detects, MarchCMinusDetectsRepresentativeFaults) {
    const auto test = march::march_c_minus();
    EXPECT_TRUE(detects(test, InjectedFault::single(FaultKind::Saf0, 0)));
    EXPECT_TRUE(detects(test, InjectedFault::single(FaultKind::TfDown, 7)));
    EXPECT_TRUE(detects(test, InjectedFault::coupling(FaultKind::CfinUp, 2, 5)));
    EXPECT_TRUE(detects(test, InjectedFault::coupling(FaultKind::CfidDown1, 6, 1)));
}

TEST(Detects, ScanMissesCouplingFaults) {
    const auto test = march::scan();
    EXPECT_FALSE(
        detects(test, InjectedFault::coupling(FaultKind::CfidUp0, 2, 1)));
}

TEST(CoversEverywhere, PlacementsAtEveryCellAndPair) {
    const engine::Engine& engine = engine::Engine::global();
    EXPECT_TRUE(engine.covers_everywhere(march::mats(), FaultKind::Saf0));
    EXPECT_TRUE(engine.covers_everywhere(march::mats(), FaultKind::Saf1));
    // MATS cannot cover idempotent coupling faults.
    EXPECT_FALSE(engine.covers_everywhere(march::mats(), FaultKind::CfidUp0));
}

TEST(CoversAll, OneUncoveredKindFailsTheList) {
    const engine::Engine& engine = engine::Engine::global();
    EXPECT_FALSE(engine.covers_all(march::mats(),
                                   {FaultKind::Saf0, FaultKind::CfidUp0}));
    EXPECT_TRUE(engine.covers_all(march::mats(), {FaultKind::Saf0}));
}

TEST(IsWellFormed, LibraryTestsNeverReadUnknownOrWrongValues) {
    for (const auto& named : march::known_march_tests())
        EXPECT_TRUE(sim::is_well_formed(named.test)) << named.name;
}

TEST(IsWellFormed, RejectsReadBeforeInitialisation) {
    EXPECT_FALSE(sim::is_well_formed(parse_march("{~(r0); ~(w0)}")));
}

TEST(IsWellFormed, RejectsWrongExpectedValue) {
    EXPECT_FALSE(sim::is_well_formed(parse_march("{~(w0); ~(r1)}")));
}

TEST(GuaranteedFailingReads, IntersectionOverExpansions) {
    // SAF1 at some cell: the r0 of element 1 always fails regardless of
    // sweep orders.
    const auto test = parse_march("{~(w0); ~(r0); ~(w1); ~(r1)}");
    const std::vector<InjectedFault> population{
        InjectedFault::single(FaultKind::Saf1, 2)};
    const std::vector<RunTrace> traces =
        engine::Engine::global().traces(test, population);
    const std::vector<ReadSite>& sites = traces.front().failing_reads;
    ASSERT_FALSE(sites.empty());
    EXPECT_EQ(sites[0], (ReadSite{1, 0}));
}

TEST(GuaranteedFailingReads, EmptyWhenUndetected) {
    const std::vector<InjectedFault> population{
        InjectedFault::coupling(FaultKind::CfidUp0, 1, 2)};
    const std::vector<RunTrace> traces =
        engine::Engine::global().traces(march::scan(), population);
    EXPECT_TRUE(traces.front().failing_reads.empty());
}

TEST(RunOptions, SmallerMemoryStillWorks) {
    RunOptions opts;
    opts.memory_size = 3;
    EXPECT_TRUE(engine::Engine::global().covers_everywhere(
        march::march_c_minus(), FaultKind::CfidUp1, opts));
}

}  // namespace
}  // namespace mtg::sim
