#pragma once

/// \file dominance.hpp
/// Field-wise primitive-dominance reduction of fault populations.
///
/// The synthesis engine (src/synth/) probes the Engine thousands of times
/// per search; each probe sweeps the whole kind-expanded population. Most
/// of that population is redundant *for search purposes*: one fault can
/// dominate another, meaning every March test that guarantees detection
/// of the dominator also guarantees detection of the dominated. A
/// dominated fault contributes nothing to the fitness signal and can be
/// dropped from the population the oracle sweeps per probe.
///
/// Two field-wise reductions compose here:
///
/// 1. **Placement classes (within a kind).** March elements apply the
///    same operation sequence to every cell, so detection of a
///    single-cell fault does not depend on the cell address, and
///    detection of a two-cell fault depends only on the *relative* order
///    of aggressor and victim (which decides the op interleaving in every
///    address sweep). The full bit population (every cell / every ordered
///    pair) collapses to one representative per relational class: one
///    placement for single-cell kinds, two (aggressor-below and
///    aggressor-above) for two-cell kinds. Word populations keep bit
///    positions distinct — data backgrounds assign values per bit, so bit
///    identity matters — and collapse only across word placements with
///    the same (aggressor bit, victim bit, word-order) signature.
///
/// 2. **Primitive dominance (across kinds, same placement).** Derived
///    per ⇕ expansion from the detection conditions of the FSM models:
///    the read that catches the dominator also catches the dominated.
///      - {SAF0, RDF1, IRF1} are mutually equivalent (each is detected
///        exactly when the test guarantees a read expecting 1 on the
///        cell), and each is dominated by TFup, WDF1 and DRDF1 (whose
///        detection *requires* such a read to observe the sensitised
///        state).
///      - Symmetrically {SAF1, RDF0, IRF0} are equivalent and dominated
///        by TFdown, WDF0 and DRDF0.
///    Within an equivalence group the enum-smallest member present in the
///    universe is kept as the representative.
///
/// The reduction is a *search* heuristic with a safety net, not a proof
/// obligation: synth::Scorer always re-validates accepted tests with
/// Want::DetectsAll over the full unpruned universe, so an unsound drop
/// could only cost extra search iterations, never a wrong accept. The
/// Engine caches pruned expansions under keys distinct from the full ones
/// (see engine::PopulationCache), so both coexist warm.

#include <span>
#include <vector>

#include "sim/memory.hpp"
#include "word/word_memory.hpp"

namespace mtg::engine {

/// Keep-mask over `faults` (1 = keep, 0 = dominated). Order-preserving:
/// the representative of every class is its first occurrence in `faults`,
/// so per-kind segment layouts (engine population offsets) survive the
/// filter. Cross-kind dominance considers exactly the kinds present in
/// `faults` — the mask of a concatenated multi-kind population is NOT the
/// concatenation of per-kind masks.
[[nodiscard]] std::vector<char> dominance_keep_mask(
    std::span<const sim::InjectedFault> faults);

/// Word-universe counterpart: classes keep (aggressor bit, victim bit,
/// word-order relation) distinct and collapse across word placements.
[[nodiscard]] std::vector<char> dominance_keep_mask(
    std::span<const word::InjectedBitFault> faults);

/// Convenience filters: the kept faults, in their original order.
[[nodiscard]] std::vector<sim::InjectedFault> dominance_prune(
    std::span<const sim::InjectedFault> faults);
[[nodiscard]] std::vector<word::InjectedBitFault> dominance_prune(
    std::span<const word::InjectedBitFault> faults);

}  // namespace mtg::engine
