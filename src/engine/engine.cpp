#include "engine/engine.hpp"

#include <algorithm>
#include <set>

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
    return std::make_shared<PopulationCache>();
}

bool all_of(const std::vector<bool>& flags) {
    return std::all_of(flags.begin(), flags.end(),
                       [](bool b) { return b; });
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

PopulationCache::PopulationCache(std::size_t fault_budget)
    : budget_(fault_budget == 0 ? kDefaultFaultBudget : fault_budget) {}

template <typename Entry, typename Shape, typename Place>
std::shared_ptr<const Entry> PopulationCache::fetch(
    Entries<Entry, Shape>& entries, std::size_t& retained,
    const std::vector<fault::FaultKind>& kinds, const Shape& shape,
    const Place& place) {
    // The key AND the build order are the canonical kind list: a permuted
    // or duplicated caller list lands on the same entry with identical
    // contents, instead of breeding redundant copies that trip budget
    // evictions.
    std::vector<fault::FaultKind> canonical = canonical_kinds(kinds);
    const Key<Shape> key{kind_key(canonical), shape};
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries.find(key);
        if (it != entries.end()) {
            ++stats_.hits;
            return it->second;
        }
        ++stats_.misses;
    }
    // Build outside the lock: a multi-million-fault expansion must not
    // stall concurrent lookups (including hits on unrelated keys).
    auto entry = std::make_shared<Entry>();
    entry->kinds = std::move(canonical);
    entry->offsets.reserve(entry->kinds.size() + 1);
    entry->offsets.push_back(0);
    for (fault::FaultKind kind : entry->kinds) {
        const auto placed = place(kind);
        entry->faults.insert(entry->faults.end(), placed.begin(),
                             placed.end());
        entry->offsets.push_back(entry->faults.size());
    }
    std::shared_ptr<const Entry> built = std::move(entry);
    // A population beyond the whole budget is served uncached — the old
    // transient-allocation behaviour — instead of pinning it for the
    // session lifetime.
    if (built->faults.size() > budget_) return built;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries.find(key);
    if (it != entries.end()) return it->second;  // lost a build race
    // The budget spans both universes: retained bit + word faults never
    // exceed it, so stats().retained_faults <= fault_budget() holds.
    if (bit_faults_ + word_faults_ + built->faults.size() > budget_) {
        bit_.clear();
        word_.clear();
        bit_faults_ = 0;
        word_faults_ = 0;
        ++stats_.evictions;
    }
    retained += built->faults.size();
    return entries.emplace(key, std::move(built)).first->second;
}

std::shared_ptr<const BitPopulationEntry> PopulationCache::bit(
    const std::vector<fault::FaultKind>& kinds, int memory_size) {
    return fetch(bit_, bit_faults_, kinds, memory_size,
                 [memory_size](fault::FaultKind kind) {
                     return sim::class_population(kind, memory_size);
                 });
}

std::shared_ptr<const WordPopulationEntry> PopulationCache::word(
    const std::vector<fault::FaultKind>& kinds,
    const word::WordRunOptions& opts) {
    return fetch(word_, word_faults_, kinds,
                 std::pair{opts.words, opts.width},
                 [&opts](fault::FaultKind kind) {
                     return word::coverage_population(kind, opts);
                 });
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
    const std::vector<fault::FaultKind>& kinds, int memory_size) const {
    return cache_->bit(kinds, memory_size);
}

std::shared_ptr<const WordPopulationEntry> Engine::word_population(
    const std::vector<fault::FaultKind>& kinds,
    const word::WordRunOptions& opts) const {
    return cache_->word(kinds, opts);
}

void Engine::count(Want want) const {
    want_counts_[static_cast<std::size_t>(want)].fetch_add(
        1, std::memory_order_relaxed);
}

Result Engine::run(const Query& query) const {
    count(query.want);
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
        cached = bit_population(query.kinds, universe.opts.memory_size);
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
        cached = word_population(query.kinds, universe.opts);
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
    std::set<fault::FaultKind> missed;
    for (std::size_t i = 0; i < result.detected.size(); ++i)
        if (!result.detected[i]) missed.insert(entry->kind_of(i));
    for (fault::FaultKind kind : kinds)
        if (missed.count(kind) != 0) return kind;
    return kinds.back();  // unreachable: every miss has an owner
}

std::vector<bool> Engine::detects(
    const march::MarchTest& test,
    std::span<const sim::InjectedFault> population,
    const sim::RunOptions& opts) const {
    count(Want::Detects);
    const BitContext ctx{test, opts, config_.pool, config_.lane_width};
    return backend_->detects(ctx, population);
}

std::vector<sim::RunTrace> Engine::traces(
    const march::MarchTest& test,
    std::span<const sim::InjectedFault> population,
    const sim::RunOptions& opts) const {
    count(Want::Traces);
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
    count(Want::Detects);
    const WordContext ctx{test, backgrounds, opts, config_.pool,
                          config_.lane_width};
    return backend_->detects(ctx, population);
}

std::vector<word::WordRunTrace> Engine::traces(
    const march::MarchTest& test,
    const std::vector<word::Background>& backgrounds,
    std::span<const word::InjectedBitFault> population,
    const word::WordRunOptions& opts) const {
    count(Want::Traces);
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
