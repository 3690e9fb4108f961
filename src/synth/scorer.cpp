#include "synth/scorer.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace mtg::synth {

std::size_t Score::kinds_full() const {
    MTG_EXPECTS(kind_covered.size() == kind_total.size());
    std::size_t full_kinds = 0;
    for (std::size_t k = 0; k < kind_covered.size(); ++k)
        if (kind_covered[k] == kind_total[k]) ++full_kinds;
    return full_kinds;
}

Scorer::Scorer(const engine::Engine& engine, ScorerConfig config)
    : engine_(engine),
      config_(std::move(config)),
      kinds_(engine::canonical_kinds(config_.kinds)) {
    MTG_EXPECTS(!kinds_.empty());
}

Score Scorer::probe(const Skeleton& candidate) {
    ++stats_.probes;
    const std::string key = candidate.canonical_text();
    if (config_.probe_cache_capacity > 0) {
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            ++stats_.cache_hits;
            return it->second;
        }
    }

    engine::Query query;
    query.test = candidate.render();
    query.universe = engine::BitUniverse{config_.opts};
    query.want = engine::Want::Detects;
    query.kinds = kinds_;
    const engine::Result result = engine_.run(query);

    // Per-kind attribution through the cached population's fence posts —
    // the verdict vector is laid out in exactly this order.
    const auto entry =
        engine_.bit_population(kinds_, config_.opts.memory_size);
    MTG_ASSERT(result.detected.size() == entry->faults.size());
    MTG_ASSERT(entry->offsets.size() == kinds_.size() + 1);

    Score score;
    score.total = result.detected.size();
    score.kind_covered.assign(kinds_.size(), 0);
    score.kind_total.assign(kinds_.size(), 0);
    for (std::size_t k = 0; k + 1 < entry->offsets.size(); ++k) {
        score.kind_total[k] = entry->offsets[k + 1] - entry->offsets[k];
        for (std::size_t i = entry->offsets[k]; i < entry->offsets[k + 1]; ++i)
            if (result.detected[i]) ++score.kind_covered[k];
        score.covered += score.kind_covered[k];
    }

    if (config_.probe_cache_capacity > 0) {
        if (cache_order_.size() >= config_.probe_cache_capacity) {
            cache_.erase(cache_order_.front());
            cache_order_.pop_front();
        }
        cache_.emplace(key, score);
        cache_order_.push_back(key);
    }
    return score;
}

bool Scorer::accepts_full(const Skeleton& candidate) const {
    return accepts_full(candidate.render());
}

bool Scorer::accepts_full(const march::MarchTest& test) const {
    ++stats_.full_checks;
    return engine_.covers_all(test, kinds_, config_.opts);
}

}  // namespace mtg::synth
