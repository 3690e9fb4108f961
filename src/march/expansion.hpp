#pragma once

/// \file expansion.hpp
/// The ⇕ (either-order) expansion scheme shared by the bit and word
/// simulation stacks.
///
/// A March test only *guarantees* detection when every combination of ⇕
/// order choices detects the fault, so the runners enumerate concrete
/// resolutions: all 2^k choices when the test has k <= cap ⇕ elements,
/// otherwise only the two uniform (all-ascending, all-descending) sweeps.
/// Bit j of a choice resolves the j-th ⇕ element (set = descending).
///
/// Both sim::expansion_choices and word::expansion_choices are thin
/// wrappers over this helper, so the two stacks can never drift apart on
/// the capped-expansion semantics.

#include <vector>

#include "march/march_test.hpp"

namespace mtg::march {

/// Number of ⇕ elements of a test.
[[nodiscard]] int any_order_count(const MarchTest& test);

/// Largest admissible ⇕ expansion cap: 2^16 resolutions per fault sweep.
/// Every default (6 bit, 4 word) sits far below it; a larger cap would let
/// one request enumerate billions of resolutions (and `1u << k` is
/// undefined from k = 32 on).
inline constexpr int kMaxAnyExpansion = 16;

/// The concrete ⇕ resolutions described above. Requires
/// `max_any_expansion <= kMaxAnyExpansion`.
[[nodiscard]] std::vector<unsigned> expansion_choices(const MarchTest& test,
                                                      int max_any_expansion);

}  // namespace mtg::march
