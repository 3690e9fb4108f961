#include "sim/two_cell_sim.hpp"

#include "util/contracts.hpp"

namespace mtg::sim {

using fsm::AbstractOp;
using fsm::AbstractOpKind;
using fsm::Input;
using fsm::MemoryFsm;

namespace {

/// Converts an abstract op to the FSM input symbol.
Input op_input(const AbstractOp& op) {
    switch (op.kind) {
        case AbstractOpKind::Read: return fsm::read_input(op.cell);
        case AbstractOpKind::Write: return fsm::write_input(op.cell, op.value);
        case AbstractOpKind::Wait: return Input::T;
    }
    MTG_ASSERT(false && "unreachable");
    return Input::T;
}

/// One op as the table walk needs it: its input symbol and, for a
/// verify-read, the expected value (-1 for writes and waits).
struct Step {
    Input input;
    int expected;
};

/// The ops of one call converted once, into a per-thread buffer that the
/// next call on this thread overwrites.
const std::vector<Step>& steps_of(const std::vector<AbstractOp>& ops) {
    thread_local std::vector<Step> steps;
    steps.clear();
    for (const AbstractOp& op : ops)
        steps.push_back({op_input(op), op.is_read() ? int{op.value} : -1});
    return steps;
}

/// Runs the steps from the power-up state with index `start`; true when a
/// verify-read mismatches.
bool run_from(const std::vector<Step>& steps, const MemoryFsm& machine,
              int start, bool* read_of_unknown) {
    int state = start;
    bool detected = false;
    for (const Step& step : steps) {
        if (step.expected >= 0) {
            const Trit out = machine.output(state, step.input);
            if (!is_known(out)) {
                if (read_of_unknown) *read_of_unknown = true;
            } else if (trit_bit(out) != step.expected) {
                detected = true;
            }
        }
        state = machine.next(state, step.input);
    }
    return detected;
}

}  // namespace

bool gts_detects(const std::vector<AbstractOp>& ops, const MemoryFsm& faulty) {
    // Guaranteed detection: mismatch under every power-up completion, the
    // four known states by index (fsm::all_known_states order).
    const std::vector<Step>& steps = steps_of(ops);
    for (int start = 0; start < fsm::kStateCount; ++start) {
        if (!run_from(steps, faulty, start, nullptr)) return false;
    }
    return true;
}

bool gts_detects(const std::vector<AbstractOp>& ops,
                 const fault::FaultInstance& instance) {
    return gts_detects(ops, fault::faulty_machine(instance));
}

bool gts_well_formed(const std::vector<AbstractOp>& ops) {
    static const MemoryFsm good = MemoryFsm::good();
    const std::vector<Step>& steps = steps_of(ops);
    for (int start = 0; start < fsm::kStateCount; ++start) {
        bool read_unknown = false;
        const bool mismatch = run_from(steps, good, start, &read_unknown);
        if (mismatch || read_unknown) return false;
    }
    return true;
}

}  // namespace mtg::sim
