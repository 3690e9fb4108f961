#pragma once

/// \file placement.hpp
/// Canonical representative placement shared by the bit and word stacks.
///
/// The coverage matrix and the diagnosis dictionary place each fault
/// instance at fixed representative positions so their populations stay
/// aligned: the "lo" slot at count/3 and the "hi" slot at 2·count/3 of the
/// address range (cells for the bit stack, words for the word stack), with
/// the instance's aggressor role deciding which slot is the aggressor.
/// sim::place_instance and word::place_instance both resolve their slots
/// through this helper, so the two placements can never drift apart.

#include "fault/instance.hpp"

namespace mtg::fault {

/// The two representative slots of an address range of `count` positions.
struct CanonicalSlots {
    int lo{0};  ///< count/3 — single-cell faults and the Cell::I aggressor
    int hi{0};  ///< 2·count/3 — the Cell::J role
};

[[nodiscard]] constexpr CanonicalSlots canonical_slots(int count) {
    return {count / 3, 2 * count / 3};
}

/// True when the instance's aggressor takes the lo slot (aggressor role is
/// the lower-address cell i).
[[nodiscard]] constexpr bool aggressor_at_lo(const FaultInstance& instance) {
    return instance.aggressor == fsm::Cell::I;
}

}  // namespace mtg::fault
