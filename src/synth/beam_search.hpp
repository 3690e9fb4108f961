#pragma once

/// \file beam_search.hpp
/// Beam search over Skeleton space, plus the post-acceptance refiner.
///
/// The search grows candidates slot by slot. Each round expands every
/// beam survivor by one slot (every template from slot_templates ×
/// every address order), probes the children through the Scorer, and
/// keeps the best `beam_width` by a length-penalised objective
///
///     objective = covered − length_penalty · complexity
///
/// so a child that covers the same faults with fewer operations always
/// outranks the longer one. With `lookahead > 0` a child's rank is the
/// best objective reachable within `lookahead` further greedy steps — a
/// depth-limited rollout that lets the search climb through plateau
/// slots (e.g. the w-only sensitiser element that pays off only after
/// the next read element lands).
///
/// **Determinism is load-bearing**: same (kinds, beam, lookahead, seed)
/// must synthesise byte-identical tests on any worker count, lane width
/// or backend. The ingredients: Engine results are bit-identical across
/// backends; candidate generation iterates fixed-order vectors (no
/// unordered containers); ranking ties break by (complexity asc, seeded
/// hash asc, canonical text asc) where the hash is FNV-1a of the
/// canonical text mixed with the seed through SplitMix64 — seeded
/// diversity without wall-clock or global RNG state. The determinism
/// battery (tests/synth_test.cpp) holds this contract across backends
/// and thread counts.
///
/// Acceptance: the first candidate in ranked order whose probe is full
/// is accepted — a probe asks one placement per class, which decides
/// every placement (sim::class_population). The LookaheadRefiner then
/// applies drop-op / flip-polarity / merge-element rewrites, keeping a
/// rewrite only when the rewritten test still passes
/// Scorer::accepts_full and improves (shorter, or equal length with
/// lexicographically smaller canonical text — a well-founded descent, so
/// refinement terminates).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "synth/scorer.hpp"
#include "synth/skeleton.hpp"

namespace mtg::synth {

struct SearchConfig {
    int beam_width{8};
    int lookahead{1};       ///< greedy rollout depth for ranking (0 = off)
    int max_slots{8};       ///< give up after this many growth rounds
    std::uint64_t seed{0};  ///< tie-break diversity; same seed = same test
    double length_penalty{0.125};  ///< objective cost per memory op
    /// Offer Delay slots (retention faults). Callers normally set this to
    /// fault::needs_wait of the target kinds.
    bool include_delay{false};
};

/// Outcome of one synthesis run.
struct SearchResult {
    std::optional<Skeleton> skeleton;  ///< accepted candidate, if any
    march::MarchTest test;             ///< rendering of *skeleton* (refined)
    int rounds{0};                     ///< growth rounds executed
    Scorer::Stats probe_stats;         ///< scorer counters at completion
    /// Best class coverage seen, for diagnostics on failure.
    std::size_t best_covered{0};
    std::size_t best_total{0};

    [[nodiscard]] bool found() const { return skeleton.has_value(); }
};

/// Seeded tie-break hash: FNV-1a of `text` mixed with `seed` through one
/// SplitMix64 round. Exposed for the determinism tests.
[[nodiscard]] std::uint64_t tie_break_hash(const std::string& text,
                                           std::uint64_t seed);

class BeamSearch {
public:
    BeamSearch(Scorer& scorer, SearchConfig config);

    /// Runs rounds until a candidate's probe is full or `max_slots`
    /// rounds elapse. The accepted candidate is refined before being
    /// returned.
    [[nodiscard]] SearchResult run();

    [[nodiscard]] const SearchConfig& config() const { return config_; }

private:
    struct Ranked {
        Skeleton skeleton;
        Score score;
        int complexity{0};
        double objective{0.0};       ///< immediate objective
        double rank_value{0.0};      ///< objective after lookahead rollout
        std::uint64_t tie_hash{0};
        std::string text;
    };

    Scorer& scorer_;
    SearchConfig config_;

    [[nodiscard]] double objective_of(const Score& score,
                                      int complexity) const;
    [[nodiscard]] Ranked rank(Skeleton skeleton) const;
    /// All one-slot extensions of `parent` (templates × orders), ranked.
    [[nodiscard]] std::vector<Ranked> children_of(const Skeleton& parent) const;
    /// Best objective reachable from `from` in up to `depth` greedy steps.
    [[nodiscard]] double rollout(const Skeleton& from, int depth) const;
    static void sort_ranked(std::vector<Ranked>& pool);
};

/// Post-acceptance simplifier: greedy first-improvement descent over
/// drop-op, merge-element and flip-polarity rewrites, each kept only if
/// the rewritten skeleton still passes Scorer::accepts_full.
class LookaheadRefiner {
public:
    explicit LookaheadRefiner(Scorer& scorer) : scorer_(scorer) {}

    /// Returns the refined skeleton (possibly unchanged). `accepted`
    /// must already pass Scorer::accepts_full.
    [[nodiscard]] Skeleton refine(Skeleton accepted) const;

private:
    Scorer& scorer_;

    /// All single-rewrite neighbours, in deterministic generation order.
    [[nodiscard]] static std::vector<Skeleton> rewrites(const Skeleton& s);
};

}  // namespace mtg::synth
