#include "synth/beam_search.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <tuple>
#include <utility>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace mtg::synth {

std::uint64_t tie_break_hash(const std::string& text, std::uint64_t seed) {
    // FNV-1a over the canonical text, then one SplitMix64 round keyed by
    // the seed: different seeds permute the tie order without any global
    // RNG state, identical inputs always hash identically.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return SplitMix64(h ^ seed).next();
}

BeamSearch::BeamSearch(Scorer& scorer, SearchConfig config)
    : scorer_(scorer), config_(config) {
    MTG_EXPECTS(config_.beam_width > 0);
    MTG_EXPECTS(config_.lookahead >= 0);
    MTG_EXPECTS(config_.max_slots > 0);
}

double BeamSearch::objective_of(const Score& score, int complexity) const {
    return static_cast<double>(score.covered) -
           config_.length_penalty * static_cast<double>(complexity);
}

BeamSearch::Ranked BeamSearch::rank(Skeleton skeleton) const {
    Ranked ranked;
    ranked.score = scorer_.probe(skeleton);
    ranked.text = skeleton.canonical_text();
    ranked.complexity = skeleton.complexity();
    ranked.objective = objective_of(ranked.score, ranked.complexity);
    ranked.rank_value = ranked.objective;
    ranked.tie_hash = tie_break_hash(ranked.text, config_.seed);
    ranked.skeleton = std::move(skeleton);
    return ranked;
}

std::vector<BeamSearch::Ranked> BeamSearch::children_of(
    const Skeleton& parent) const {
    static constexpr std::array<march::AddressOrder, 3> kOrders{
        march::AddressOrder::Any, march::AddressOrder::Ascending,
        march::AddressOrder::Descending};

    std::vector<Ranked> children;
    for (const std::vector<SlotOp>& ops :
         slot_templates(config_.include_delay)) {
        for (const march::AddressOrder order : kOrders) {
            Skeleton child = parent;
            child.slots.push_back(Slot{order, ops});
            // An opening element that reads before any write renders an
            // ill-formed test (undefined expected value) — never probe it.
            if (!child.starts_with_write()) continue;
            children.push_back(rank(std::move(child)));
        }
    }
    return children;
}

double BeamSearch::rollout(const Skeleton& from, int depth) const {
    if (depth <= 0) return objective_of(scorer_.probe(from), from.complexity());
    std::vector<Ranked> children = children_of(from);
    if (children.empty())
        return objective_of(scorer_.probe(from), from.complexity());
    sort_ranked(children);
    // Greedy descent through the single best child; the rollout value is
    // the best objective seen anywhere along the chain.
    const double here = objective_of(scorer_.probe(from), from.complexity());
    return std::max(here, rollout(children.front().skeleton, depth - 1));
}

void BeamSearch::sort_ranked(std::vector<Ranked>& pool) {
    std::sort(pool.begin(), pool.end(), [](const Ranked& a, const Ranked& b) {
        if (a.rank_value != b.rank_value) return a.rank_value > b.rank_value;
        if (a.complexity != b.complexity) return a.complexity < b.complexity;
        if (a.tie_hash != b.tie_hash) return a.tie_hash < b.tie_hash;
        return a.text < b.text;
    });
}

SearchResult BeamSearch::run() {
    SearchResult result;

    std::vector<Skeleton> beam;
    // Roots: the empty skeleton at both init polarities. Round 1 grows
    // them into every one-slot opener that starts with a write.
    beam.push_back(Skeleton{0, {}});
    beam.push_back(Skeleton{1, {}});

    for (int round = 1; round <= config_.max_slots; ++round) {
        result.rounds = round;

        // Expand every beam survivor; dedup by rendered text so the beam
        // spends its width on distinct tests, keeping the first (= best
        // parent's) occurrence.
        std::vector<Ranked> pool;
        std::set<std::string> seen;
        for (const Skeleton& parent : beam) {
            for (Ranked& child : children_of(parent)) {
                if (!seen.insert(child.text).second) continue;
                pool.push_back(std::move(child));
            }
        }
        if (pool.empty()) break;
        sort_ranked(pool);

        for (const Ranked& candidate : pool) {
            result.best_covered =
                std::max(result.best_covered, candidate.score.covered);
            result.best_total = candidate.score.total;
        }

        // Acceptance pass: a full probe covers every placement. Ranked
        // order makes the first accept the shortest (length-penalised)
        // covering test.
        for (const Ranked& candidate : pool) {
            if (!candidate.score.full()) continue;
            Skeleton refined =
                LookaheadRefiner(scorer_).refine(candidate.skeleton);
            result.test = refined.render();
            result.skeleton = std::move(refined);
            result.probe_stats = scorer_.stats();
            return result;
        }

        // Lookahead re-rank of the head of the pool: a child's worth is
        // the best objective reachable within `lookahead` greedy steps.
        const std::size_t head = std::min(
            pool.size(), static_cast<std::size_t>(config_.beam_width) * 4);
        if (config_.lookahead > 0) {
            for (std::size_t i = 0; i < head; ++i) {
                pool[i].rank_value = std::max(
                    pool[i].objective,
                    rollout(pool[i].skeleton, config_.lookahead));
            }
            std::vector<Ranked> head_pool(pool.begin(),
                                          pool.begin() + static_cast<std::ptrdiff_t>(head));
            sort_ranked(head_pool);
            std::move(head_pool.begin(), head_pool.end(), pool.begin());
        }

        beam.clear();
        const std::size_t width = std::min(
            pool.size(), static_cast<std::size_t>(config_.beam_width));
        for (std::size_t i = 0; i < width; ++i)
            beam.push_back(std::move(pool[i].skeleton));
    }

    result.probe_stats = scorer_.stats();
    return result;
}

Skeleton LookaheadRefiner::refine(Skeleton accepted) const {
    bool improved = true;
    while (improved) {
        improved = false;
        const int complexity = accepted.complexity();
        const std::string text = accepted.canonical_text();
        for (Skeleton& candidate : rewrites(accepted)) {
            if (candidate.slots.empty() || !candidate.starts_with_write())
                continue;
            const int rewritten = candidate.complexity();
            const std::string rewritten_text = candidate.canonical_text();
            // Well-founded descent: strictly shorter, or same length with
            // lexicographically smaller canonical text (flip-polarity and
            // merge-element preserve complexity but canonicalise).
            const bool better =
                rewritten < complexity ||
                (rewritten == complexity && rewritten_text < text);
            if (!better) continue;
            if (!scorer_.accepts_full(candidate)) continue;
            accepted = std::move(candidate);
            improved = true;
            break;  // first improvement; restart the rewrite scan
        }
    }
    return accepted;
}

std::vector<Skeleton> LookaheadRefiner::rewrites(const Skeleton& s) {
    std::vector<Skeleton> out;
    // Drop-op: every single-op deletion (removing the slot if it empties).
    for (std::size_t i = 0; i < s.slots.size(); ++i) {
        for (std::size_t j = 0; j < s.slots[i].ops.size(); ++j) {
            Skeleton candidate = s;
            candidate.slots[i].ops.erase(
                candidate.slots[i].ops.begin() + static_cast<std::ptrdiff_t>(j));
            if (candidate.slots[i].ops.empty())
                candidate.slots.erase(candidate.slots.begin() +
                                      static_cast<std::ptrdiff_t>(i));
            out.push_back(std::move(candidate));
        }
    }
    // Merge-element: fuse adjacent slots with compatible orders (equal, or
    // one side ⇕ which specialises to the other).
    for (std::size_t i = 0; i + 1 < s.slots.size(); ++i) {
        const march::AddressOrder a = s.slots[i].order;
        const march::AddressOrder b = s.slots[i + 1].order;
        if (a != b && a != march::AddressOrder::Any &&
            b != march::AddressOrder::Any)
            continue;
        Skeleton candidate = s;
        candidate.slots[i].order = (a == march::AddressOrder::Any) ? b : a;
        candidate.slots[i].ops.insert(candidate.slots[i].ops.end(),
                                      s.slots[i + 1].ops.begin(),
                                      s.slots[i + 1].ops.end());
        candidate.slots.erase(candidate.slots.begin() +
                              static_cast<std::ptrdiff_t>(i) + 1);
        out.push_back(std::move(candidate));
    }
    // Flip-polarity: re-bind every derived data value to the other phase.
    Skeleton flipped = s;
    flipped.init_polarity = 1 - flipped.init_polarity;
    out.push_back(std::move(flipped));
    return out;
}

}  // namespace mtg::synth
