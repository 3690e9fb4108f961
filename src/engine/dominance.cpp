#include "engine/dominance.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <tuple>
#include <utility>

namespace mtg::engine {

using fault::FaultKind;

namespace {

/// The two detection-equivalence groups and their directed dominators
/// (see the header derivation). Group order is enum order, so the kept
/// representative is deterministic.
struct DominanceGroup {
    std::array<FaultKind, 3> members;
    std::array<FaultKind, 3> dominators;
};

constexpr std::array<DominanceGroup, 2> kGroups{{
    // Detected exactly by a guaranteed read expecting 1.
    {{FaultKind::Saf0, FaultKind::Rdf1, FaultKind::Irf1},
     {FaultKind::TfUp, FaultKind::Wdf1, FaultKind::Drdf1}},
    // Detected exactly by a guaranteed read expecting 0.
    {{FaultKind::Saf1, FaultKind::Rdf0, FaultKind::Irf0},
     {FaultKind::TfDown, FaultKind::Wdf0, FaultKind::Drdf0}},
}};

/// True when `kind` is cross-kind dominated given the kind set of the
/// universe: an earlier member of its equivalence group is present, or
/// any directed dominator of the group is.
bool kind_dominated(FaultKind kind, const std::set<FaultKind>& present) {
    for (const DominanceGroup& group : kGroups) {
        const auto member = std::find(group.members.begin(),
                                      group.members.end(), kind);
        if (member == group.members.end()) continue;
        for (auto it = group.members.begin(); it != member; ++it)
            if (present.count(*it) != 0) return true;
        for (FaultKind dominator : group.dominators)
            if (present.count(dominator) != 0) return true;
        return false;
    }
    return false;
}

/// Relation of two addresses, the field-wise signature component that
/// decides the op interleaving of a two-cell fault under uniform March
/// elements.
int order_sign(int a, int b) { return a < b ? -1 : (a > b ? 1 : 0); }

template <typename Fault, typename ClassKey, typename KindOf,
          typename KeyOf>
std::vector<char> keep_mask(std::span<const Fault> faults, KindOf kind_of,
                            KeyOf key_of) {
    std::set<FaultKind> present;
    for (const Fault& fault : faults) present.insert(kind_of(fault));

    std::vector<char> keep(faults.size(), 0);
    std::set<ClassKey> seen;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (kind_dominated(kind_of(faults[i]), present)) continue;
        if (seen.insert(key_of(faults[i])).second) keep[i] = 1;
    }
    return keep;
}

}  // namespace

std::vector<char> dominance_keep_mask(
    std::span<const sim::InjectedFault> faults) {
    // Bit placements: single-cell detection is address-independent;
    // two-cell detection depends only on sign(aggressor - victim).
    using Key = std::pair<int, int>;  // (kind, relative order)
    return keep_mask<sim::InjectedFault, Key>(
        faults, [](const sim::InjectedFault& f) { return f.kind; },
        [](const sim::InjectedFault& f) {
            const bool two_cell = f.cell_b >= 0;
            return Key{static_cast<int>(f.kind),
                       two_cell ? order_sign(f.cell_a, f.cell_b) : 0};
        });
}

std::vector<char> dominance_keep_mask(
    std::span<const word::InjectedBitFault> faults) {
    // Word placements: backgrounds assign data per *bit position* (the
    // same pattern in every word), so bit identity must survive; only
    // word placements with identical (bit_a, bit_b, word-order) collapse.
    using Key = std::tuple<int, int, int, int>;
    return keep_mask<word::InjectedBitFault, Key>(
        faults, [](const word::InjectedBitFault& f) { return f.kind; },
        [](const word::InjectedBitFault& f) {
            if (!fault::is_two_cell(f.kind))
                return Key{static_cast<int>(f.kind), f.a.bit, -1, 0};
            return Key{static_cast<int>(f.kind), f.a.bit, f.b.bit,
                       order_sign(f.a.word, f.b.word)};
        });
}

std::vector<sim::InjectedFault> dominance_prune(
    std::span<const sim::InjectedFault> faults) {
    const std::vector<char> keep = dominance_keep_mask(faults);
    std::vector<sim::InjectedFault> kept;
    for (std::size_t i = 0; i < faults.size(); ++i)
        if (keep[i] != 0) kept.push_back(faults[i]);
    return kept;
}

std::vector<word::InjectedBitFault> dominance_prune(
    std::span<const word::InjectedBitFault> faults) {
    const std::vector<char> keep = dominance_keep_mask(faults);
    std::vector<word::InjectedBitFault> kept;
    for (std::size_t i = 0; i < faults.size(); ++i)
        if (keep[i] != 0) kept.push_back(faults[i]);
    return kept;
}

}  // namespace mtg::engine
