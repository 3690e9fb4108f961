#include <gtest/gtest.h>

#include "core/march_builder.hpp"
#include "core/rewrite.hpp"
#include "core/test_pattern_graph.hpp"
#include "engine/engine.hpp"
#include "sim/march_runner.hpp"

namespace mtg::core {
namespace {

using fault::FaultKind;
using fault::TestPattern;
using fsm::AbstractOp;
using fsm::Cell;
using fsm::PairState;
using march::AddressOrder;

Gts cfid_example_gts() {
    TestPattern tp3{PairState::parse("00"), AbstractOp::write(Cell::I, 1),
                    AbstractOp::read(Cell::J, 0)};
    TestPattern tp2{PairState::parse("10"), AbstractOp::write(Cell::J, 1),
                    AbstractOp::read(Cell::I, 1)};
    TestPattern tp4{PairState::parse("00"), AbstractOp::write(Cell::J, 1),
                    AbstractOp::read(Cell::I, 0)};
    TestPattern tp1{PairState::parse("01"), AbstractOp::write(Cell::I, 1),
                    AbstractOp::read(Cell::J, 1)};
    return concatenate_tps({tp3, tp2, tp4, tp1});
}

/// The §4.3 worked example: the pipeline's output for {⟨↑,1⟩,⟨↑,0⟩} is an
/// 8n March test, valid for all four instances.
TEST(MarchBuilder, PaperWorkedExampleGivesValid8n) {
    const march::MarchTest test = build_march(reorder(cfid_example_gts()));
    EXPECT_EQ(test.complexity(), 8) << test.str();
    EXPECT_TRUE(sim::is_well_formed(test));
    for (FaultKind kind : {FaultKind::CfidUp0, FaultKind::CfidUp1})
        EXPECT_TRUE(engine::Engine::global().covers_everywhere(test, kind))
            << test.str() << " misses " << fault::fault_kind_name(kind);
}

TEST(MarchBuilder, PaperExampleStructure) {
    const march::MarchTest test = build_march(reorder(cfid_example_gts()));
    // Expected shape: ⇕(w0); ⇑(r0,w1); ⇑(r1); ⇕(w0); ⇓(r0,w1); ⇓(r1).
    ASSERT_EQ(test.size(), 6u) << test.str();
    EXPECT_EQ(test[1].order, AddressOrder::Ascending);
    EXPECT_EQ(test[2].order, AddressOrder::Ascending);
    EXPECT_EQ(test[4].order, AddressOrder::Descending);
    EXPECT_EQ(test[5].order, AddressOrder::Descending);
}

TEST(MarchBuilder, SingleCellChainBuildsCompactTest) {
    // SAF-style: w1/r1 then w0/r0, all on one cell, no order anchors.
    TestPattern saf0{PairState::parse("1x"), std::nullopt,
                     AbstractOp::read(Cell::I, 1)};
    TestPattern saf1{PairState::parse("0x"), std::nullopt,
                     AbstractOp::read(Cell::I, 0)};
    const march::MarchTest test =
        build_march(reorder(concatenate_tps({saf0, saf1})));
    EXPECT_EQ(test.complexity(), 4) << test.str();
    EXPECT_TRUE(sim::is_well_formed(test));
    const engine::Engine& engine = engine::Engine::global();
    EXPECT_TRUE(engine.covers_everywhere(test, FaultKind::Saf0));
    EXPECT_TRUE(engine.covers_everywhere(test, FaultKind::Saf1));
    for (const auto& element : test.elements())
        EXPECT_EQ(element.order, AddressOrder::Any);  // Rule 5
}

TEST(MarchBuilder, TransitionFaultChain) {
    TestPattern tf_up{PairState::parse("0x"), AbstractOp::write(Cell::I, 1),
                      AbstractOp::read(Cell::I, 1)};
    TestPattern tf_down{PairState::parse("1x"), AbstractOp::write(Cell::I, 0),
                        AbstractOp::read(Cell::I, 0)};
    const march::MarchTest test =
        build_march(reorder(concatenate_tps({tf_up, tf_down})));
    EXPECT_EQ(test.complexity(), 5) << test.str();
    EXPECT_TRUE(sim::is_well_formed(test));
    const engine::Engine& engine = engine::Engine::global();
    EXPECT_TRUE(engine.covers_everywhere(test, FaultKind::TfUp));
    EXPECT_TRUE(engine.covers_everywhere(test, FaultKind::TfDown));
}

TEST(MarchBuilder, RetentionChainEmitsDelay) {
    TestPattern drf{PairState::parse("1x"), AbstractOp::wait(),
                    AbstractOp::read(Cell::I, 1)};
    const march::MarchTest test = build_march(reorder(concatenate_tps({drf})));
    EXPECT_TRUE(test.has_wait());
    EXPECT_TRUE(sim::is_well_formed(test));
    EXPECT_TRUE(
        engine::Engine::global().covers_everywhere(test, FaultKind::Drf0));
}

TEST(MarchBuilder, CfstVictimHonoursAggressorState) {
    // CFst<1,0>@i>j BFE with excite and observe both on j but aggressor i
    // constrained to 1: (10, w1j, r1j).
    TestPattern cfst{PairState::parse("10"), AbstractOp::write(Cell::J, 1),
                     AbstractOp::read(Cell::J, 1)};
    const march::MarchTest test = build_march(reorder(concatenate_tps({cfst})));
    EXPECT_TRUE(sim::is_well_formed(test)) << test.str();
    EXPECT_TRUE(
        sim::detects(test, sim::InjectedFault::coupling(FaultKind::CfstS1F0,
                                                        1, 5)))
        << test.str();
}

TEST(MarchBuilder, AfPairNeedsBothDirections) {
    // One AF alternative per role: (x0, w1i, r0j) and (x1, w0j, r1i).
    TestPattern af_ij{PairState::parse("x0"), AbstractOp::write(Cell::I, 1),
                      AbstractOp::read(Cell::J, 0)};
    TestPattern af_ji{PairState::parse("1x"), AbstractOp::write(Cell::J, 0),
                      AbstractOp::read(Cell::I, 1)};
    // Fix af_ji's init to the proper victim constraint (i=1).
    const march::MarchTest test =
        build_march(reorder(concatenate_tps({af_ij, af_ji})));
    EXPECT_TRUE(sim::is_well_formed(test)) << test.str();
    EXPECT_TRUE(
        engine::Engine::global().covers_everywhere(test, FaultKind::Af))
        << test.str();
}

TEST(MarchBuilder, EmptyChainRejected) {
    Gts empty;
    EXPECT_THROW((void)build_march(empty), ContractViolation);
}

}  // namespace
}  // namespace mtg::core
