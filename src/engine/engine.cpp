#include "engine/engine.hpp"

#include <algorithm>

#include "fault/dominance.hpp"
#include "sim/batch_runner.hpp"
#include "util/contracts.hpp"
#include "word/word_batch_runner.hpp"

namespace mtg::engine {

namespace {

std::vector<int> kind_key(const std::vector<fault::FaultKind>& kinds) {
    std::vector<int> key;
    key.reserve(kinds.size());
    for (fault::FaultKind kind : kinds) key.push_back(static_cast<int>(kind));
    return key;
}

std::unique_ptr<Backend> make_backend(const EngineConfig& config) {
    switch (config.backend) {
        case BackendKind::Scalar: return make_scalar_backend();
        case BackendKind::Packed: break;
    }
    return make_packed_backend();
}

std::shared_ptr<PopulationCache> make_cache(const EngineConfig& config) {
    if (config.cache != nullptr) return config.cache;
    return std::make_shared<PopulationCache>(config.cache_budget);
}

bool all_of(const std::vector<bool>& flags) {
    return std::all_of(flags.begin(), flags.end(),
                       [](bool b) { return b; });
}

template <typename Entry>
fault::FaultKind entry_kind_of(const Entry& entry, std::size_t index) {
    MTG_EXPECTS(!entry.kinds.empty() && index < entry.faults.size());
    // offsets is kinds.size()+1 ascending fence posts; the owning kind is
    // the last one whose offset is <= index.
    const auto it = std::upper_bound(entry.offsets.begin() + 1,
                                     entry.offsets.end(), index);
    return entry.kinds[static_cast<std::size_t>(
        it - (entry.offsets.begin() + 1))];
}

/// The verdict dispatch shared by both universes — one implementation so
/// the derivation of `detected`/`all` from each Want can never drift
/// between the bit and word paths. `traces_field` selects Result::traces
/// or Result::word_traces.
template <typename Context, typename Fault, typename TraceVector>
void evaluate(Result& out, const Backend& backend, const Context& ctx,
              std::span<const Fault> population,
              TraceVector Result::* traces_field) {
    switch (out.want) {
        case Want::Detects:
            out.detected = backend.detects(ctx, population);
            out.all = all_of(out.detected);
            break;
        case Want::DetectsAll:
            out.all = backend.detects_all(ctx, population);
            break;
        case Want::Traces:
        case Want::DictionarySweep: {
            TraceVector& traces = out.*traces_field;
            traces = backend.traces(ctx, population);
            out.detected.reserve(traces.size());
            for (const auto& trace : traces)
                out.detected.push_back(trace.detected);
            out.all = all_of(out.detected);
            break;
        }
    }
}

}  // namespace

std::vector<fault::FaultKind> canonical_kinds(
    const std::vector<fault::FaultKind>& kinds) {
    std::vector<fault::FaultKind> canonical = kinds;
    std::sort(canonical.begin(), canonical.end(),
              [](fault::FaultKind a, fault::FaultKind b) {
                  return static_cast<int>(a) < static_cast<int>(b);
              });
    canonical.erase(std::unique(canonical.begin(), canonical.end()),
                    canonical.end());
    return canonical;
}

fault::FaultKind BitPopulationEntry::kind_of(std::size_t index) const {
    return entry_kind_of(*this, index);
}

fault::FaultKind WordPopulationEntry::kind_of(std::size_t index) const {
    return entry_kind_of(*this, index);
}

PopulationCache::PopulationCache(std::size_t fault_budget)
    : budget_(fault_budget == 0 ? kDefaultFaultBudget : fault_budget) {}

std::shared_ptr<const BitPopulationEntry> PopulationCache::bit(
    const std::vector<fault::FaultKind>& kinds, int memory_size,
    bool pruned) {
    // The key AND the build order are the canonical kind list: a permuted
    // or duplicated caller list lands on the same entry with identical
    // contents, instead of breeding redundant copies that trip budget
    // evictions. Pruned expansions get their own key so full and reduced
    // populations stay warm side by side.
    std::vector<fault::FaultKind> canonical = canonical_kinds(kinds);
    const BitKey key{kind_key(canonical), memory_size, pruned};
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = bit_.find(key);
        if (it != bit_.end()) {
            ++stats_.hits;
            return it->second;
        }
        ++stats_.misses;
    }
    // Build outside the lock: a multi-million-fault expansion must not
    // stall concurrent lookups (including hits on unrelated keys).
    auto entry = std::make_shared<BitPopulationEntry>();
    entry->kinds = std::move(canonical);
    entry->offsets.reserve(entry->kinds.size() + 1);
    entry->offsets.push_back(0);
    if (pruned) {
        // Derive from the full entry (hitting or warming its key) and
        // filter segment-wise, so the pruned layout can never disagree
        // with the full one it claims to summarise.
        const std::shared_ptr<const BitPopulationEntry> full =
            bit(entry->kinds, memory_size, false);
        const std::vector<char> keep = fault::dominance_keep_mask(
            std::span<const sim::InjectedFault>(full->faults));
        for (std::size_t k = 0; k + 1 < full->offsets.size(); ++k) {
            for (std::size_t i = full->offsets[k]; i < full->offsets[k + 1];
                 ++i)
                if (keep[i] != 0) entry->faults.push_back(full->faults[i]);
            entry->offsets.push_back(entry->faults.size());
        }
    } else {
        for (fault::FaultKind kind : entry->kinds) {
            const std::vector<sim::InjectedFault> placed =
                sim::full_population(kind, memory_size);
            entry->faults.insert(entry->faults.end(), placed.begin(),
                                 placed.end());
            entry->offsets.push_back(entry->faults.size());
        }
    }
    std::shared_ptr<const BitPopulationEntry> built = std::move(entry);
    // A population beyond the whole budget is served uncached — the old
    // transient-allocation behaviour — instead of pinning it for the
    // session lifetime.
    if (built->faults.size() > budget_) return built;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = bit_.find(key);
    if (it != bit_.end()) return it->second;  // lost a build race
    // The budget spans both universes: retained bit + word faults never
    // exceed it, so stats().retained_faults <= fault_budget() holds.
    if (bit_faults_ + word_faults_ + built->faults.size() > budget_) {
        bit_.clear();
        word_.clear();
        bit_faults_ = 0;
        word_faults_ = 0;
        ++stats_.evictions;
    }
    bit_faults_ += built->faults.size();
    return bit_.emplace(key, std::move(built)).first->second;
}

std::shared_ptr<const WordPopulationEntry> PopulationCache::word(
    const std::vector<fault::FaultKind>& kinds,
    const word::WordRunOptions& opts, bool pruned) {
    std::vector<fault::FaultKind> canonical = canonical_kinds(kinds);
    const WordKey key{kind_key(canonical), opts.words, opts.width, pruned};
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = word_.find(key);
        if (it != word_.end()) {
            ++stats_.hits;
            return it->second;
        }
        ++stats_.misses;
    }
    auto entry = std::make_shared<WordPopulationEntry>();
    entry->kinds = std::move(canonical);
    entry->offsets.reserve(entry->kinds.size() + 1);
    entry->offsets.push_back(0);
    if (pruned) {
        const std::shared_ptr<const WordPopulationEntry> full =
            word(entry->kinds, opts, false);
        const std::vector<char> keep = fault::dominance_keep_mask(
            std::span<const word::InjectedBitFault>(full->faults));
        for (std::size_t k = 0; k + 1 < full->offsets.size(); ++k) {
            for (std::size_t i = full->offsets[k]; i < full->offsets[k + 1];
                 ++i)
                if (keep[i] != 0) entry->faults.push_back(full->faults[i]);
            entry->offsets.push_back(entry->faults.size());
        }
    } else {
        for (fault::FaultKind kind : entry->kinds) {
            const std::vector<word::InjectedBitFault> placed =
                word::coverage_population(kind, opts);
            entry->faults.insert(entry->faults.end(), placed.begin(),
                                 placed.end());
            entry->offsets.push_back(entry->faults.size());
        }
    }
    std::shared_ptr<const WordPopulationEntry> built = std::move(entry);
    if (built->faults.size() > budget_) return built;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = word_.find(key);
    if (it != word_.end()) return it->second;  // lost a build race
    if (bit_faults_ + word_faults_ + built->faults.size() > budget_) {
        bit_.clear();
        word_.clear();
        bit_faults_ = 0;
        word_faults_ = 0;
        ++stats_.evictions;
    }
    word_faults_ += built->faults.size();
    return word_.emplace(key, std::move(built)).first->second;
}

PopulationCache::Stats PopulationCache::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    Stats out = stats_;
    out.bit_entries = bit_.size();
    out.word_entries = word_.size();
    out.retained_faults = bit_faults_ + word_faults_;
    return out;
}

Engine::Engine(EngineConfig config)
    : config_(config), backend_(make_backend(config)),
      cache_(make_cache(config)) {}

Engine::Engine(std::unique_ptr<Backend> backend, EngineConfig config)
    : config_(config), backend_(std::move(backend)),
      cache_(make_cache(config)) {
    MTG_EXPECTS(backend_ != nullptr);
}

Engine::~Engine() = default;

Engine& Engine::global() {
    static Engine instance;
    return instance;
}

std::shared_ptr<const BitPopulationEntry> Engine::bit_population(
    const std::vector<fault::FaultKind>& kinds, int memory_size,
    bool pruned) const {
    return cache_->bit(kinds, memory_size, pruned);
}

std::shared_ptr<const WordPopulationEntry> Engine::word_population(
    const std::vector<fault::FaultKind>& kinds,
    const word::WordRunOptions& opts, bool pruned) const {
    return cache_->word(kinds, opts, pruned);
}

Result Engine::run(const Query& query) const {
    want_counts_[static_cast<std::size_t>(query.want)].fetch_add(
        1, std::memory_order_relaxed);
    if (const auto* bit = std::get_if<BitUniverse>(&query.universe))
        return run_bit(query, *bit);
    return run_word(query, std::get<WordUniverse>(query.universe));
}

Engine::Stats Engine::stats() const {
    Stats out;
    out.cache = cache_->stats();
    out.want_detects =
        want_counts_[static_cast<std::size_t>(Want::Detects)].load(
            std::memory_order_relaxed);
    out.want_detects_all =
        want_counts_[static_cast<std::size_t>(Want::DetectsAll)].load(
            std::memory_order_relaxed);
    out.want_traces =
        want_counts_[static_cast<std::size_t>(Want::Traces)].load(
            std::memory_order_relaxed);
    out.want_sweeps =
        want_counts_[static_cast<std::size_t>(Want::DictionarySweep)].load(
            std::memory_order_relaxed);
    out.queries = out.want_detects + out.want_detects_all + out.want_traces +
                  out.want_sweeps;
    return out;
}

Result Engine::run_bit(const Query& query,
                       const BitUniverse& universe) const {
    MTG_EXPECTS(query.word_faults.empty());
    Result out;
    out.want = query.want;
    const BitContext ctx{query.test, universe.opts, config_.pool,
                         config_.lane_width};

    // Resolve the population: canonical instance placements for a
    // dictionary sweep, the cached kind expansion, or explicit faults.
    std::shared_ptr<const BitPopulationEntry> cached;
    std::vector<sim::InjectedFault> placed;
    std::span<const sim::InjectedFault> population = query.bit_faults;
    if (query.want == Want::DictionarySweep) {
        // An empty kind list yields the empty sweep (no instances, no
        // traces) — the graceful degenerate the dictionaries and the
        // coverage matrix have always produced.
        MTG_EXPECTS(query.bit_faults.empty());
        out.instances = fault::instantiate(query.kinds);
        placed.reserve(out.instances.size());
        for (const fault::FaultInstance& inst : out.instances)
            placed.push_back(
                sim::place_instance(inst, universe.opts.memory_size));
        population = placed;
    } else if (!query.kinds.empty()) {
        MTG_EXPECTS(query.bit_faults.empty());
        cached = bit_population(query.kinds, universe.opts.memory_size,
                                query.prune);
        population = cached->faults;
    }

    evaluate(out, *backend_, ctx, population, &Result::traces);
    return out;
}

Result Engine::run_word(const Query& query,
                        const WordUniverse& universe) const {
    MTG_EXPECTS(query.bit_faults.empty());
    MTG_EXPECTS(!universe.backgrounds.empty());
    Result out;
    out.want = query.want;
    const WordContext ctx{query.test, universe.backgrounds, universe.opts,
                          config_.pool, config_.lane_width};

    std::shared_ptr<const WordPopulationEntry> cached;
    std::vector<word::InjectedBitFault> placed;
    std::span<const word::InjectedBitFault> population = query.word_faults;
    if (query.want == Want::DictionarySweep) {
        // Empty kind list -> empty sweep, mirroring run_bit.
        MTG_EXPECTS(query.word_faults.empty());
        out.instances = fault::instantiate(query.kinds);
        placed.reserve(out.instances.size());
        for (const fault::FaultInstance& inst : out.instances)
            placed.push_back(word::place_instance(inst, universe.opts));
        population = placed;
    } else if (!query.kinds.empty()) {
        MTG_EXPECTS(query.word_faults.empty());
        cached = word_population(query.kinds, universe.opts, query.prune);
        population = cached->faults;
    }

    evaluate(out, *backend_, ctx, population, &Result::word_traces);
    return out;
}

// ---- typed conveniences ---------------------------------------------------

bool Engine::covers_everywhere(const march::MarchTest& test,
                               fault::FaultKind kind,
                               const sim::RunOptions& opts) const {
    return covers_all(test, {kind}, opts);
}

bool Engine::covers_all(const march::MarchTest& test,
                        const std::vector<fault::FaultKind>& kinds,
                        const sim::RunOptions& opts) const {
    Query query;
    query.test = test;
    query.universe = BitUniverse{opts};
    query.want = Want::DetectsAll;
    query.kinds = kinds;
    return run(query).all;
}

std::optional<fault::FaultKind> Engine::first_uncovered(
    const march::MarchTest& test, const std::vector<fault::FaultKind>& kinds,
    const sim::RunOptions& opts) const {
    if (kinds.empty()) return std::nullopt;
    // One multi-kind per-fault query over the concatenated population:
    // hits the same canonical cache entry covers_all primes, instead of
    // evicting it with |kinds| single-kind entries as the old per-kind
    // covers_everywhere loop did.
    Query query;
    query.test = test;
    query.universe = BitUniverse{opts};
    query.want = Want::Detects;
    query.kinds = kinds;
    const Result result = run(query);
    if (result.all) return std::nullopt;
    // Map every miss back to its owning canonical kind through the cached
    // entry's offsets (a deterministic rebuild if the entry was evicted in
    // between — contents are identical either way), then report the first
    // *caller-order* kind that owns a miss, preserving the documented
    // "first kind in your list" semantics under canonical storage.
    const auto entry = bit_population(kinds, opts.memory_size);
    MTG_EXPECTS(entry->faults.size() == result.detected.size());
    std::vector<bool> kind_missed(entry->kinds.size(), false);
    std::size_t kind_index = 0;
    for (std::size_t i = 0; i < result.detected.size(); ++i) {
        if (result.detected[i]) continue;
        while (i >= entry->offsets[kind_index + 1]) ++kind_index;
        kind_missed[kind_index] = true;
    }
    for (fault::FaultKind kind : kinds) {
        const auto it = std::lower_bound(
            entry->kinds.begin(), entry->kinds.end(), kind,
            [](fault::FaultKind a, fault::FaultKind b) {
                return static_cast<int>(a) < static_cast<int>(b);
            });
        if (it != entry->kinds.end() && *it == kind &&
            kind_missed[static_cast<std::size_t>(it - entry->kinds.begin())])
            return kind;
    }
    return kinds.back();  // unreachable: every miss has an owner
}

std::vector<bool> Engine::detects(
    const march::MarchTest& test,
    std::span<const sim::InjectedFault> population,
    const sim::RunOptions& opts) const {
    const BitContext ctx{test, opts, config_.pool, config_.lane_width};
    return backend_->detects(ctx, population);
}

std::vector<sim::RunTrace> Engine::traces(
    const march::MarchTest& test,
    std::span<const sim::InjectedFault> population,
    const sim::RunOptions& opts) const {
    const BitContext ctx{test, opts, config_.pool, config_.lane_width};
    return backend_->traces(ctx, population);
}

bool Engine::covers_everywhere(const march::MarchTest& test,
                               const std::vector<word::Background>& backgrounds,
                               fault::FaultKind kind,
                               const word::WordRunOptions& opts) const {
    Query query;
    query.test = test;
    query.universe = WordUniverse{backgrounds, opts};
    query.want = Want::DetectsAll;
    query.kinds = {kind};
    return run(query).all;
}

std::vector<bool> Engine::detects(
    const march::MarchTest& test,
    const std::vector<word::Background>& backgrounds,
    std::span<const word::InjectedBitFault> population,
    const word::WordRunOptions& opts) const {
    const WordContext ctx{test, backgrounds, opts, config_.pool,
                          config_.lane_width};
    return backend_->detects(ctx, population);
}

std::vector<word::WordRunTrace> Engine::traces(
    const march::MarchTest& test,
    const std::vector<word::Background>& backgrounds,
    std::span<const word::InjectedBitFault> population,
    const word::WordRunOptions& opts) const {
    const WordContext ctx{test, backgrounds, opts, config_.pool,
                          config_.lane_width};
    return backend_->traces(ctx, population);
}

Result Engine::dictionary_sweep(const march::MarchTest& test,
                                const std::vector<fault::FaultKind>& kinds,
                                const sim::RunOptions& opts) const {
    Query query;
    query.test = test;
    query.universe = BitUniverse{opts};
    query.want = Want::DictionarySweep;
    query.kinds = kinds;
    return run(query);
}

Result Engine::dictionary_sweep(const march::MarchTest& test,
                                const std::vector<word::Background>& backgrounds,
                                const std::vector<fault::FaultKind>& kinds,
                                const word::WordRunOptions& opts) const {
    Query query;
    query.test = test;
    query.universe = WordUniverse{backgrounds, opts};
    query.want = Want::DictionarySweep;
    query.kinds = kinds;
    return run(query);
}

}  // namespace mtg::engine
