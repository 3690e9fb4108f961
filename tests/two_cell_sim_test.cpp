#include <gtest/gtest.h>

#include "fault/kinds.hpp"
#include "sim/two_cell_sim.hpp"
#include "util/rng.hpp"

namespace mtg::sim {
namespace {

using fault::FaultInstance;
using fault::FaultKind;
using fsm::AbstractOp;
using fsm::Cell;

std::vector<AbstractOp> tp1_sequence() {
    // TP1 of the paper's CFid<^,0> example: init 01, excite w1i, observe r1j.
    return {AbstractOp::write(Cell::I, 0), AbstractOp::write(Cell::J, 1),
            AbstractOp::write(Cell::I, 1), AbstractOp::read(Cell::J, 1)};
}

TEST(GtsDetects, Tp1DetectsItsTargetInstance) {
    EXPECT_TRUE(gts_detects(tp1_sequence(),
                            FaultInstance{FaultKind::CfidUp0, Cell::I}));
}

TEST(GtsDetects, Tp1MissesTheOppositeRole) {
    EXPECT_FALSE(gts_detects(tp1_sequence(),
                             FaultInstance{FaultKind::CfidUp0, Cell::J}));
}

TEST(GtsDetects, PaperWorkedExampleGtsCoversAllFourInstances) {
    // §4: GTS = w0i,w0j,w1i,r0j,w1j,r1i,w0i,w0j,w1j,r0i,w1i,r1j covering
    // {<^,1>, <^,0>} in both roles.
    const std::vector<AbstractOp> gts = {
        AbstractOp::write(Cell::I, 0), AbstractOp::write(Cell::J, 0),
        AbstractOp::write(Cell::I, 1), AbstractOp::read(Cell::J, 0),
        AbstractOp::write(Cell::J, 1), AbstractOp::read(Cell::I, 1),
        AbstractOp::write(Cell::I, 0), AbstractOp::write(Cell::J, 0),
        AbstractOp::write(Cell::J, 1), AbstractOp::read(Cell::I, 0),
        AbstractOp::write(Cell::I, 1), AbstractOp::read(Cell::J, 1),
    };
    for (FaultKind kind : {FaultKind::CfidUp0, FaultKind::CfidUp1}) {
        EXPECT_TRUE(gts_detects(gts, FaultInstance{kind, Cell::I}))
            << fault::fault_kind_name(kind);
        EXPECT_TRUE(gts_detects(gts, FaultInstance{kind, Cell::J}))
            << fault::fault_kind_name(kind);
    }
    EXPECT_TRUE(gts_well_formed(gts));
}

TEST(GtsDetects, RequiresDetectionFromEveryPowerUpState) {
    // w1i,r1i detects SAF0 only if the cell starts low... in fact a stuck-
    // at-0 cell ignores the write from any start, so detection holds.
    const std::vector<AbstractOp> ops = {AbstractOp::write(Cell::I, 1),
                                         AbstractOp::read(Cell::I, 1)};
    EXPECT_TRUE(gts_detects(ops, FaultInstance{FaultKind::Saf0, Cell::I}));
    // But TF<^> needs the explicit 0 background: without w0i first, a
    // power-up-high cell shows no transition failure.
    EXPECT_FALSE(gts_detects(ops, FaultInstance{FaultKind::TfUp, Cell::I}));
    const std::vector<AbstractOp> with_background = {
        AbstractOp::write(Cell::I, 0), AbstractOp::write(Cell::I, 1),
        AbstractOp::read(Cell::I, 1)};
    EXPECT_TRUE(gts_detects(with_background,
                            FaultInstance{FaultKind::TfUp, Cell::I}));
}

TEST(GtsWellFormed, RejectsReadsOfUninitialisedCells) {
    EXPECT_FALSE(gts_well_formed({AbstractOp::read(Cell::I, 0)}));
}

TEST(GtsWellFormed, RejectsWrongExpectations) {
    EXPECT_FALSE(gts_well_formed(
        {AbstractOp::write(Cell::I, 0), AbstractOp::read(Cell::I, 1)}));
}

TEST(GtsWellFormed, AcceptsProperSequences) {
    EXPECT_TRUE(gts_well_formed(
        {AbstractOp::write(Cell::I, 0), AbstractOp::read(Cell::I, 0),
         AbstractOp::write(Cell::J, 1), AbstractOp::read(Cell::J, 1),
         AbstractOp::wait(), AbstractOp::read(Cell::J, 1)}));
}

TEST(GtsDetects, WaitSensitisesRetention) {
    const std::vector<AbstractOp> ops = {AbstractOp::write(Cell::I, 1),
                                         AbstractOp::wait(),
                                         AbstractOp::read(Cell::I, 1)};
    EXPECT_TRUE(gts_detects(ops, FaultInstance{FaultKind::Drf0, Cell::I}));
    // Without the wait the decay never happens.
    const std::vector<AbstractOp> without = {AbstractOp::write(Cell::I, 1),
                                             AbstractOp::read(Cell::I, 1)};
    EXPECT_FALSE(gts_detects(without, FaultInstance{FaultKind::Drf0, Cell::I}));
}

/// The walk gts_detects and gts_well_formed made before they ran on raw
/// table indices: a PairState through MemoryFsm::next and output per op,
/// every op to the end, from each fsm::all_known_states start. Kept as
/// the oracle of the index walk.
bool reference_run_from(const std::vector<AbstractOp>& ops,
                        const fsm::MemoryFsm& machine, fsm::PairState state,
                        bool* read_of_unknown) {
    bool detected = false;
    for (const AbstractOp& op : ops) {
        const fsm::Input in =
            op.is_read()    ? fsm::read_input(op.cell)
            : op.is_write() ? fsm::write_input(op.cell, op.value)
                            : fsm::Input::T;
        if (op.is_read()) {
            const Trit out = machine.output(state, in);
            if (!is_known(out)) {
                if (read_of_unknown) *read_of_unknown = true;
            } else if (trit_bit(out) != op.value) {
                detected = true;
            }
        }
        state = machine.next(state, in);
    }
    return detected;
}

bool reference_detects(const std::vector<AbstractOp>& ops,
                       const fsm::MemoryFsm& faulty) {
    for (const fsm::PairState& start : fsm::all_known_states())
        if (!reference_run_from(ops, faulty, start, nullptr)) return false;
    return true;
}

bool reference_well_formed(const std::vector<AbstractOp>& ops) {
    const fsm::MemoryFsm good = fsm::MemoryFsm::good();
    for (const fsm::PairState& start : fsm::all_known_states()) {
        bool read_unknown = false;
        if (reference_run_from(ops, good, start, &read_unknown) ||
            read_unknown)
            return false;
    }
    return true;
}

/// A seeded random word of 1-16 ops over both cells. A read expects the
/// cell's last written value two times in three once it has one, and a
/// random value otherwise, so the words read unwritten cells, read wrong
/// values and are well formed, all in bulk.
std::vector<AbstractOp> random_word(SplitMix64& rng) {
    std::vector<AbstractOp> ops;
    int stored[2] = {-1, -1};
    const int length = rng.range(1, 16);
    for (int k = 0; k < length; ++k) {
        const auto cell = static_cast<Cell>(rng.range(0, 1));
        int& value = stored[static_cast<int>(cell)];
        switch (rng.range(0, 4)) {
            case 0:
                ops.push_back(AbstractOp::wait());
                break;
            case 1:
            case 2:
                value = rng.range(0, 1);
                ops.push_back(AbstractOp::write(cell, value));
                break;
            default:
                ops.push_back(AbstractOp::read(
                    cell, value >= 0 && rng.below(3) != 0 ? value
                                                          : rng.range(0, 1)));
                break;
        }
    }
    return ops;
}

TEST(GtsWalk, MatchesThePerOpReference) {
    std::vector<fsm::MemoryFsm> machines;
    for (const FaultInstance& instance :
         fault::instantiate(fault::all_fault_kinds()))
        machines.push_back(fault::faulty_machine(instance));
    SplitMix64 rng(20261019);
    int well_formed = 0;
    int detections = 0;
    int probes = 0;
    for (int trial = 0; trial < 600; ++trial) {
        const std::vector<AbstractOp> ops = random_word(rng);
        const bool formed = gts_well_formed(ops);
        ASSERT_EQ(formed, reference_well_formed(ops)) << "trial " << trial;
        if (formed) ++well_formed;
        for (std::size_t m = 0; m < machines.size(); ++m) {
            const bool detected = gts_detects(ops, machines[m]);
            ASSERT_EQ(detected, reference_detects(ops, machines[m]))
                << "trial " << trial << ", machine " << m;
            if (detected) ++detections;
            ++probes;
        }
    }
    // Both answers of both checks must be exercised in bulk.
    EXPECT_GT(well_formed, 30);
    EXPECT_LT(well_formed, 570);
    EXPECT_GT(detections, probes / 50);
    EXPECT_LT(detections, probes - probes / 50);
}

}  // namespace
}  // namespace mtg::sim
