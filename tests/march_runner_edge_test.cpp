/// Edge cases of the March runner: ⇕-expansion cap overflow, multi-fault
/// composition order in the scalar oracle, and X-reads of uninitialised
/// cells.

#include <gtest/gtest.h>

#include <string>

#include "engine/engine.hpp"
#include "march/expansion.hpp"
#include "march/library.hpp"
#include "march/parser.hpp"
#include "sim/march_runner.hpp"
#include "util/contracts.hpp"

namespace mtg::sim {
namespace {

using fault::FaultKind;
using march::parse_march;

// --------------------------------------------------------- ⇕ expansion cap

TEST(ExpansionCap, FullEnumerationUpToTheCap) {
    // Three ⇕ elements, cap 6: all 2^3 = 8 order combinations.
    const auto test = parse_march("{~(w0); ~(r0,w1); ~(r1)}");
    RunOptions opts;
    opts.max_any_expansion = 6;
    EXPECT_EQ(expansion_choices(test, opts).size(), 8u);
}

TEST(ExpansionCap, OverflowFallsBackToUniformSweeps) {
    // Seven ⇕ elements with cap 6: only the all-ascending and
    // all-descending resolutions remain.
    const auto test =
        parse_march("{~(w0); ~(r0); ~(w1); ~(r1); ~(w0); ~(r0); ~(r0)}");
    RunOptions opts;
    opts.max_any_expansion = 6;
    const auto choices = expansion_choices(test, opts);
    ASSERT_EQ(choices.size(), 2u);
    EXPECT_EQ(choices[0], 0u);
    EXPECT_EQ(choices[1], ~0u);
}

TEST(ExpansionCap, CapZeroStillEvaluatesBothUniformOrders) {
    const auto test = parse_march("{~(w0); ~(r0,w1); ~(r1)}");
    RunOptions opts;
    opts.max_any_expansion = 0;
    EXPECT_EQ(expansion_choices(test, opts).size(), 2u);
    // The capped run must agree with the full expansion on this test (its
    // detection here does not depend on mixed orders).
    const engine::Engine& engine = engine::Engine::global();
    EXPECT_TRUE(engine.covers_everywhere(test, FaultKind::Saf0, opts));
    EXPECT_TRUE(engine.covers_everywhere(test, FaultKind::Saf0));
}

TEST(ExpansionCap, CapAboveTheBoundIsAContractViolation) {
    // A cap is a request for up to 2^cap resolutions per fault; past
    // march::kMaxAnyExpansion (2^16) it is refused outright rather than
    // enumerated — 31 ⇕ elements under cap 40 would be 2^31 choices.
    std::string text = "{";
    for (int i = 0; i < 31; ++i) text += i == 0 ? "~(w0)" : "; ~(r0)";
    const auto test = parse_march(text + "}");
    RunOptions opts;
    opts.max_any_expansion = march::kMaxAnyExpansion + 1;
    EXPECT_THROW((void)expansion_choices(test, opts), ContractViolation);
    opts.max_any_expansion = 40;
    EXPECT_THROW((void)expansion_choices(test, opts), ContractViolation);
    // At the bound itself 31 elements exceed the cap: uniform sweeps only.
    opts.max_any_expansion = march::kMaxAnyExpansion;
    EXPECT_EQ(expansion_choices(test, opts).size(), 2u);
}

TEST(ExpansionCap, PastThirtyTwoAnyElementsTheUniformSweepsStayDefined) {
    // 34 ⇕ elements: only the sweeps 0 and ~0u run, and the elements past
    // bit 31 follow them instead of shifting a choice by 32 or more.
    std::string text = "{~(w0)";
    for (int i = 0; i < 33; ++i)
        text += i % 2 == 0 ? "; ~(r0,w1)" : "; ~(r1,w0)";
    const auto test = parse_march(text + "}");
    ASSERT_EQ(march::any_order_count(test), 34);
    EXPECT_TRUE(march::any_descending(~0u, 33));
    EXPECT_FALSE(march::any_descending(0u, 33));
    EXPECT_TRUE(sim::is_well_formed(test));
    const engine::Engine& engine = engine::Engine::global();
    const RunOptions opts;
    for (FaultKind kind : {FaultKind::Saf0, FaultKind::CfidUp1}) {
        const auto population = full_population(kind, opts.memory_size);
        const auto batched = engine.detects(test, population, opts);
        for (std::size_t i = 0; i < population.size(); ++i)
            EXPECT_EQ(batched[i], detects(test, population[i], opts))
                << fault_kind_name(kind) << " #" << i;
    }
}

TEST(ExpansionCap, CappedRunIsOptimisticAboutMixedOrders) {
    // CFid<^,0> with aggressor above victim needs a descending-then-read
    // pattern; uniform sweeps alone can claim detection that a mixed
    // expansion would refute, so the capped verdict may only ever be *more*
    // optimistic, never more pessimistic.
    const auto& test = march::march_ss();
    RunOptions full;
    RunOptions capped;
    capped.max_any_expansion = 0;
    const engine::Engine& engine = engine::Engine::global();
    for (FaultKind kind :
         {FaultKind::CfidUp0, FaultKind::CfidDown1, FaultKind::CfinUp}) {
        if (engine.covers_everywhere(test, kind, full)) {
            EXPECT_TRUE(engine.covers_everywhere(test, kind, capped))
                << fault_kind_name(kind);
        }
    }
}

// ------------------------------------------------ multi-fault composition

TEST(MultiFault, CompositionAppliesInInjectionOrder) {
    // Saf0 then Saf1 on the same cell: the later fault wins the write
    // effect, so the cell behaves stuck-at-1 on writes.
    SimMemory first_then_second(4);
    first_then_second.inject(InjectedFault::single(FaultKind::Saf0, 1));
    first_then_second.inject(InjectedFault::single(FaultKind::Saf1, 1));
    first_then_second.write(1, 0);
    EXPECT_EQ(first_then_second.peek(1), Trit::One);

    SimMemory second_then_first(4);
    second_then_first.inject(InjectedFault::single(FaultKind::Saf1, 1));
    second_then_first.inject(InjectedFault::single(FaultKind::Saf0, 1));
    second_then_first.write(1, 1);
    EXPECT_EQ(second_then_first.peek(1), Trit::Zero);
}

TEST(MultiFault, RunOnceComposesFaults) {
    // A TF<^> victim cell that is also the victim of a CFid<^,1> from a
    // neighbour: the coupling can set the cell to 1 even though its own
    // 0->1 write fails.
    const auto test = parse_march("{^(w0); ^(w1); ^(r1)}");
    const std::vector<InjectedFault> faults = {
        InjectedFault::single(FaultKind::TfUp, 2),
        InjectedFault::coupling(FaultKind::CfidUp1, 1, 2),
    };
    const RunTrace trace = run_once(test, faults, 0u);
    // Cell 1's 0->1 write repairs cell 2 before cell 2's own (failing)
    // write; the final read of cell 2 sees 1... but the w1 on cell 2
    // happens *after* the coupling fired, and TF<^> keeps it at the value
    // the coupling left, which is already 1 -> no mismatch at cell 2.
    for (const auto& obs : trace.failing_observations)
        EXPECT_NE(obs.cell, 2) << "composed faults should mask each other";
}

TEST(MultiFault, OrderMattersThroughStaticCoupling) {
    // AfMap(0 -> 2) plus CfstS1F0(2 -> 3): a write redirected into the
    // static coupling's aggressor must still trigger the forcing.
    SimMemory memory(4);
    memory.inject(InjectedFault::coupling(FaultKind::AfMap, 0, 2));
    memory.inject(InjectedFault::coupling(FaultKind::CfstS1F0, 2, 3));
    memory.write(3, 1);
    EXPECT_EQ(memory.peek(3), Trit::One);
    memory.write(0, 1);  // lands on cell 2, sensitising the coupling
    EXPECT_EQ(memory.peek(2), Trit::One);
    EXPECT_EQ(memory.peek(3), Trit::Zero);
}

// ------------------------------------------------------ uninitialised reads

TEST(UninitialisedReads, ReadOfUntouchedCellReturnsX) {
    SimMemory memory(4);
    EXPECT_EQ(memory.read(2), Trit::X);
}

TEST(UninitialisedReads, XNeverCountsAsDetection) {
    // Reading uninitialised cells cannot produce a guaranteed mismatch,
    // whatever value the op expects.
    const auto test = parse_march("{^(r0); ^(r1)}");
    const RunTrace trace =
        run_once(test, {InjectedFault::coupling(FaultKind::CfinUp, 0, 1)}, 0u);
    EXPECT_FALSE(trace.detected);
    EXPECT_TRUE(trace.failing_reads.empty());
}

TEST(UninitialisedReads, MakeTestsIllFormed) {
    EXPECT_FALSE(sim::is_well_formed(parse_march("{^(r0,w0)}")));
    EXPECT_TRUE(sim::is_well_formed(parse_march("{^(w0); ^(r0)}")));
}

TEST(UninitialisedReads, StuckAtCellsReadDespiteNoInitialisation) {
    // SAF cells have a definite value from the start: a read-only test can
    // observe them even though the cell was never written.
    SimMemory memory(4);
    memory.inject(InjectedFault::single(FaultKind::Saf1, 2));
    EXPECT_EQ(memory.read(2), Trit::One);
    const auto test = parse_march("{^(r0)}");
    const RunTrace trace =
        run_once(test, {InjectedFault::single(FaultKind::Saf1, 2)}, 0u);
    EXPECT_TRUE(trace.detected);
}

}  // namespace
}  // namespace mtg::sim
