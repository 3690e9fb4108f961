#pragma once

/// \file scorer.hpp
/// Fitness oracle of the synthesis search: batched coverage probes
/// through an engine::Engine session.
///
/// A probe renders the candidate skeleton and issues one Want::Detects
/// query over the kind-expanded bit universe; the per-fault verdicts are
/// folded through the cached population's per-kind offsets into a
/// per-kind covered count — the fitness signal the beam search ranks on
/// — without ever re-expanding a population. Probes default to the
/// dominance-pruned expansion (engine/dominance.hpp): dominated faults
/// add no signal, so the pruned sweep is the same ranking for a fraction
/// of the per-probe work.
///
/// Acceptance is a *different* question from fitness: accepts_full()
/// issues Want::DetectsAll with prune=false over the full universe, so a
/// test is only ever declared covering on the unreduced population. This
/// is the safety net that makes dominance pruning a pure accelerator.
///
/// Identical-rendering candidates are deduplicated by a bounded FIFO
/// probe cache keyed on the canonical rendered text — the same key the
/// determinism battery round-trips through the parser.

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "synth/skeleton.hpp"

namespace mtg::synth {

/// Coverage verdict of one probe.
struct Score {
    std::size_t covered{0};  ///< detected faults in the probed population
    std::size_t total{0};    ///< probed population size
    /// Covered / total per kind, aligned with ScorerConfig::kinds in
    /// canonical order (engine::canonical_kinds).
    std::vector<std::size_t> kind_covered;
    std::vector<std::size_t> kind_total;

    [[nodiscard]] bool full() const { return covered == total; }
    /// Number of kinds with every probed placement covered.
    [[nodiscard]] std::size_t kinds_full() const;
};

struct ScorerConfig {
    std::vector<fault::FaultKind> kinds;  ///< target universe (any order)
    sim::RunOptions opts{};
    bool prune{true};   ///< probe the dominance-pruned expansion
    std::size_t probe_cache_capacity{4096};  ///< 0 disables the cache
};

class Scorer {
public:
    /// `engine` must outlive the Scorer. Kinds are canonicalised once;
    /// Score vectors follow that order (see kinds()).
    Scorer(const engine::Engine& engine, ScorerConfig config);

    /// Canonical target kinds — the order of Score::kind_covered.
    [[nodiscard]] const std::vector<fault::FaultKind>& kinds() const {
        return kinds_;
    }

    /// Fitness probe (pruned universe by default). Cached by canonical
    /// rendered text.
    [[nodiscard]] Score probe(const Skeleton& candidate);

    /// Acceptance gate: Want::DetectsAll over the FULL universe,
    /// prune=false, regardless of config. Never cached through the probe
    /// cache (the Engine's population cache still serves the expansion).
    [[nodiscard]] bool accepts_full(const Skeleton& candidate) const;
    [[nodiscard]] bool accepts_full(const march::MarchTest& test) const;

    struct Stats {
        std::size_t probes{0};       ///< probe() calls
        std::size_t cache_hits{0};   ///< served from the probe cache
        std::size_t full_checks{0};  ///< accepts_full() calls
    };
    [[nodiscard]] const Stats& stats() const { return stats_; }

    [[nodiscard]] const ScorerConfig& config() const { return config_; }

private:
    const engine::Engine& engine_;
    ScorerConfig config_;
    std::vector<fault::FaultKind> kinds_;

    std::map<std::string, Score> cache_;
    std::deque<std::string> cache_order_;  ///< FIFO eviction
    mutable Stats stats_;
};

}  // namespace mtg::synth
