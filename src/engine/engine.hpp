#pragma once

/// \file engine.hpp
/// The unified fault-simulation session: one typed query API over the bit
/// and word simulation stacks, over every execution backend.
///
/// Before the Engine, the capabilities of the two parallel stacks —
/// guaranteed detects, detects-all gates, guaranteed traces, dictionary
/// sweeps — were reached through a grab-bag of free functions and
/// hand-constructed runners, and the decision of population, lane width,
/// thread pool and execution strategy was re-made ad hoc at every call
/// site. An Engine makes that decision once per session:
///
///   engine::Engine eng;                         // packed, global pool
///   engine::Query q;
///   q.test = march::march_c_minus();
///   q.universe = engine::BitUniverse{{.memory_size = 8}};
///   q.want = engine::Want::DetectsAll;
///   q.kinds = {fault::FaultKind::CfidUp0};
///   const bool covered = eng.run(q).all;
///
/// The Query names the March test, the fault universe (bit cells or
/// words × width × backgrounds) and the verdict shape (Want); the
/// population is either explicit faults or a kind list the Engine expands
/// — and caches — itself. Results carry per-fault verdicts, the
/// all-detected bit, guaranteed traces (bit or word), and for dictionary
/// sweeps the instance list aligned with its traces.
///
/// Execution is delegated to a Backend (see backend.hpp): Scalar (the
/// original per-fault oracles, for differential testing), Packed (the
/// production 63·W-lane word kernel, which answers bit queries as the
/// width-1 word universe under the solid background) or Remote (shard
/// ranges scattered to a worker fleet and merged by concatenation/AND —
/// see net/remote_backend.hpp). All backends are bit-identical. Nothing
/// below the Engine (sim/, word/) calls back into it: population-level
/// questions are asked of a session the caller names — Engine::global()
/// or a local Engine.
///
/// Re-entrancy: Engine::run (and every convenience over it) is safe to
/// call from any number of threads simultaneously. The backends share no
/// state between threads (the packed backend's reused runner and buffers
/// are per thread), the population caches are internally locked, and the
/// thread pool serialises concurrent parallel_for callers — the query
/// server (net/query_server.hpp) leans on exactly this to host one
/// long-lived Engine under concurrent client sessions, and the TSan CI leg
/// runs the concurrent hammer battery (tests/engine_hammer_test.cpp) to
/// keep it honest.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "engine/backend.hpp"
#include "fault/instance.hpp"
#include "util/contracts.hpp"

namespace mtg::engine {

/// Bit universe: placements on an n-cell bit-oriented memory.
struct BitUniverse {
    sim::RunOptions opts{};
};

/// Word universe: bit-fault placements on a words × width memory, the
/// test run once per data background. Every word query, by Query or by
/// a convenience below, requires word::valid_setup(backgrounds, opts),
/// checked before any backend sees the query.
struct WordUniverse {
    std::vector<word::Background> backgrounds;
    word::WordRunOptions opts{};
};

using Universe = std::variant<BitUniverse, WordUniverse>;

/// Verdict shape of a query.
enum class Want {
    Detects,          ///< per-fault guaranteed detection flags
    DetectsAll,       ///< one fail-fast all-detected bit (coverage gates)
    Traces,           ///< full guaranteed traces per fault
    DictionarySweep,  ///< fault::instantiate(kinds) placed canonically,
                      ///< traces aligned with the instance list
};

/// One simulation question. The population is exactly one of:
///   - `kinds`: the Engine expands (and caches) the universe's kind
///     population — sim::class_population for bit, one placement per
///     class, whose verdicts decide every placement (the lemma is stated
///     there); word::coverage_population for word, a sample of
///     placements. For DictionarySweep, the canonical place_instance
///     placements of fault::instantiate(kinds). Kind-expanded populations
///     are laid out in *canonical* kind order (sorted, deduplicated — see
///     canonical_kinds), so permuted or duplicated kind lists share one
///     cache entry and yield identically-ordered verdicts. A bit kind
///     query's `detected` and `traces` therefore index class
///     representatives;
///   - `bit_faults` (bit universe) / `word_faults` (word universe):
///     explicit placements, evaluated as-is.
struct Query {
    march::MarchTest test;
    Universe universe;
    Want want{Want::Detects};
    std::vector<fault::FaultKind> kinds;
    std::vector<sim::InjectedFault> bit_faults;
    std::vector<word::InjectedBitFault> word_faults;
    /// Ignored: nothing reads it. Kept only because the end-to-end
    /// benchmark driver (perfbench/src/driver.cpp) still sets it.
    bool prune{false};
};

/// Answer to a Query. Which fields are populated depends on `want`:
/// Detects fills `detected` (and `all` as its conjunction); DetectsAll
/// fills only `all`; Traces and DictionarySweep fill `traces` (bit
/// universe) or `word_traces` (word universe) plus `detected`/`all`, and
/// DictionarySweep additionally fills `instances` (instances[i] owns
/// traces[i]).
struct Result {
    Want want{Want::Detects};
    std::vector<bool> detected;
    bool all{true};
    std::vector<sim::RunTrace> traces;
    std::vector<word::WordRunTrace> word_traces;
    std::vector<fault::FaultInstance> instances;
};

/// Canonical form of a kind list: sorted by enum value, deduplicated.
/// This is the identity the population caches key on AND the build order
/// of the cached concatenation — the two must never drift apart, or a
/// cache hit would hand back faults in an order the offsets don't
/// describe.
[[nodiscard]] std::vector<fault::FaultKind> canonical_kinds(
    const std::vector<fault::FaultKind>& kinds);

/// A cached kind expansion: the concatenated population of `kinds` (in
/// canonical order) plus the per-kind layout of the concatenation, so a
/// verdict index maps back to its owning kind without re-expanding any
/// population.
template <typename Fault>
struct PopulationEntry {
    std::vector<fault::FaultKind> kinds;  ///< canonical = build order
    std::vector<Fault> faults;            ///< concatenated per kind
    /// kinds.size() + 1 fence posts: kind k owns [offsets[k], offsets[k+1]).
    std::vector<std::size_t> offsets;
};
using BitPopulationEntry = PopulationEntry<sim::InjectedFault>;
using WordPopulationEntry = PopulationEntry<word::InjectedBitFault>;

/// Thread-safe, bounded cache of kind-expanded populations, keyed by the
/// set of kinds (the *canonical* kind list) — permuted or duplicated kind
/// lists resolve to one entry instead of breeding redundant copies that
/// trigger spurious budget evictions. Shareable between sessions: the
/// query server's interactive and bulk engines pass one cache so either
/// side's misses warm the other.
///
/// Bounding: a population larger than the whole budget is built and
/// served uncached (the old transient-allocation behaviour); when
/// retained entries would exceed the budget the cache is cleared before
/// inserting (outstanding shared_ptrs stay valid — eviction only costs a
/// rebuild on the next miss). Populations are built outside the lock so
/// a multi-million-fault expansion never stalls hits on other keys.
class PopulationCache {
public:
    /// Default retained-fault budget (~4.2M placements; tens of MB).
    static constexpr std::size_t kDefaultFaultBudget = std::size_t{1} << 22;

    /// `fault_budget` = 0 picks kDefaultFaultBudget. Tests pass a tiny
    /// budget to force evictions mid-run.
    explicit PopulationCache(std::size_t fault_budget = 0);

    /// sim::class_population of each kind on an n-cell memory: at most
    /// three faults per kind, whatever n is.
    [[nodiscard]] std::shared_ptr<const BitPopulationEntry> bit(
        const std::vector<fault::FaultKind>& kinds, int memory_size);

    /// word::coverage_population of each kind on a words × width memory.
    [[nodiscard]] std::shared_ptr<const WordPopulationEntry> word(
        const std::vector<fault::FaultKind>& kinds,
        const word::WordRunOptions& opts);

    struct Stats {
        std::size_t hits{0};
        std::size_t misses{0};
        std::size_t evictions{0};  ///< budget-triggered clears
        std::size_t bit_entries{0};
        std::size_t word_entries{0};
        std::size_t retained_faults{0};
    };
    [[nodiscard]] Stats stats() const;

    [[nodiscard]] std::size_t fault_budget() const { return budget_; }

private:
    /// (kind mask, universe shape). Bit k of the mask is set when the
    /// list holds the kind with enum value k, so a permuted or duplicated
    /// list has its canonical list's key, and a hit allocates nothing:
    /// canonical_kinds runs only on a miss, where it is the entry's build
    /// order. The shape is the memory size for bit entries and (words,
    /// width) for word entries.
    template <typename Shape>
    using Key = std::pair<std::uint32_t, Shape>;
    template <typename Entry, typename Shape>
    using Entries = std::map<Key<Shape>, std::shared_ptr<const Entry>>;

    /// The one path behind bit() and word(): look up, build outside the
    /// lock (`place(kind)` expands one kind), then insert under the budget
    /// both universes share. `retained` is the universe's fault count.
    template <typename Entry, typename Shape, typename Place>
    [[nodiscard]] std::shared_ptr<const Entry> fetch(
        Entries<Entry, Shape>& entries, std::size_t& retained,
        const std::vector<fault::FaultKind>& kinds, const Shape& shape,
        const Place& place);

    std::size_t budget_;
    mutable std::mutex mutex_;
    Entries<BitPopulationEntry, int> bit_;
    Entries<WordPopulationEntry, std::pair<int, int>> word_;
    std::size_t bit_faults_{0};
    std::size_t word_faults_{0};
    Stats stats_;
};

/// Execution strategy of a session.
enum class BackendKind { Scalar, Packed };

struct EngineConfig {
    BackendKind backend{BackendKind::Packed};
    util::ThreadPool* pool{nullptr};  ///< nullptr = process-wide pool
    int lane_width{0};  ///< 0 = CPUID, clamped per population; else exact
    /// Population cache shared with other sessions (the query server's
    /// two engines pass one); nullptr = a private cache with the default
    /// budget.
    std::shared_ptr<PopulationCache> cache{};
};

/// A simulation session: owns the backend, the lane-width and pool policy,
/// and the population caches. Queries are const and safe to issue from
/// multiple threads (the caches are internally locked, the backends share
/// no state between threads, and the pool serialises concurrent jobs).
/// Engine::global() is the process-wide packed session; build a local
/// Engine to pin a different backend, pool or width.
class Engine {
public:
    explicit Engine(EngineConfig config = {});
    /// Adopts a caller-built backend (e.g. make_remote_backend, whose
    /// socket fds a BackendKind enum cannot carry). `config.backend` is
    /// ignored; pool/lane-width policy still applies.
    Engine(std::unique_ptr<Backend> backend, EngineConfig config = {});
    ~Engine();

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /// Evaluates one query on this session's backend.
    [[nodiscard]] Result run(const Query& query) const;

    /// Session observability: the population cache's hit/miss/eviction
    /// counters plus per-Want query counts. The synthesis loop reports
    /// probe-cache effectiveness from exactly these numbers, and the
    /// query server's `stats` op re-exports them per engine. Counters are
    /// atomics — stats() is safe concurrent with run() and the snapshot
    /// is monotonic, not transactionally consistent.
    struct Stats {
        PopulationCache::Stats cache;
        std::size_t queries{0};  ///< run() plus detects()/traces() calls
        std::size_t want_detects{0};
        std::size_t want_detects_all{0};
        std::size_t want_traces{0};
        std::size_t want_sweeps{0};
    };
    [[nodiscard]] Stats stats() const;

    // ---- typed conveniences over run() ---------------------------------

    /// Detection of every placement of `kind` (paper-§6 coverage), decided
    /// on its class population.
    [[nodiscard]] bool covers_everywhere(const march::MarchTest& test,
                                         fault::FaultKind kind,
                                         const sim::RunOptions& opts = {}) const;

    /// One fail-fast sweep over the concatenated populations of `kinds`:
    /// a DetectsAll query (counted as one in stats()) that goes straight
    /// to the backend on the cached population, without copying the test
    /// or the kinds into a Query.
    [[nodiscard]] bool covers_all(const march::MarchTest& test,
                                  const std::vector<fault::FaultKind>& kinds,
                                  const sim::RunOptions& opts = {}) const;

    /// Per-fault guaranteed detection of an explicit population.
    [[nodiscard]] std::vector<bool> detects(
        const march::MarchTest& test,
        std::span<const sim::InjectedFault> population,
        const sim::RunOptions& opts = {}) const;

    /// Guaranteed traces of an explicit population, canonical order.
    [[nodiscard]] std::vector<sim::RunTrace> traces(
        const march::MarchTest& test,
        std::span<const sim::InjectedFault> population,
        const sim::RunOptions& opts = {}) const;

    /// Word-universe coverage of `kind` over word::coverage_population, a
    /// sample of placements: under counting backgrounds it can answer
    /// true while an unsampled placement escapes (see that function).
    [[nodiscard]] bool covers_everywhere(
        const march::MarchTest& test,
        const std::vector<word::Background>& backgrounds,
        fault::FaultKind kind, const word::WordRunOptions& opts = {}) const;

    [[nodiscard]] std::vector<bool> detects(
        const march::MarchTest& test,
        const std::vector<word::Background>& backgrounds,
        std::span<const word::InjectedBitFault> population,
        const word::WordRunOptions& opts = {}) const;

    [[nodiscard]] std::vector<word::WordRunTrace> traces(
        const march::MarchTest& test,
        const std::vector<word::Background>& backgrounds,
        std::span<const word::InjectedBitFault> population,
        const word::WordRunOptions& opts = {}) const;

    /// The dictionary build sweep: instances + aligned guaranteed traces.
    [[nodiscard]] Result dictionary_sweep(
        const march::MarchTest& test,
        const std::vector<fault::FaultKind>& kinds,
        const sim::RunOptions& opts = {}) const;

    [[nodiscard]] Result dictionary_sweep(
        const march::MarchTest& test,
        const std::vector<word::Background>& backgrounds,
        const std::vector<fault::FaultKind>& kinds,
        const word::WordRunOptions& opts = {}) const;

    // ---- cached populations --------------------------------------------

    /// Cached class-population entry of `kinds` on an n-cell memory (see
    /// PopulationCache::bit). The entry's faults are concatenated in
    /// canonical kind order with per-kind offsets alongside.
    [[nodiscard]] std::shared_ptr<const BitPopulationEntry> bit_population(
        const std::vector<fault::FaultKind>& kinds, int memory_size) const;

    /// Cached coverage-population entry of `kinds` on a words × width
    /// memory, keyed by (canonical kinds, words, width).
    [[nodiscard]] std::shared_ptr<const WordPopulationEntry> word_population(
        const std::vector<fault::FaultKind>& kinds,
        const word::WordRunOptions& opts) const;

    [[nodiscard]] const EngineConfig& config() const { return config_; }
    [[nodiscard]] const Backend& backend() const { return *backend_; }
    /// The session's population cache (possibly shared across sessions).
    [[nodiscard]] const std::shared_ptr<PopulationCache>& population_cache()
        const {
        return cache_;
    }

    /// The process-wide session (packed backend, global pool, auto width)
    /// the generator, the coverage matrix and the diagnosis dictionary
    /// query.
    [[nodiscard]] static Engine& global();

private:
    EngineConfig config_;
    std::unique_ptr<Backend> backend_;
    std::shared_ptr<PopulationCache> cache_;
    /// Per-Want query counters, indexed by static_cast<int>(Want).
    mutable std::array<std::atomic<std::size_t>, 4> want_counts_{};

    void count(Want want) const;

    [[nodiscard]] Result run_bit(const Query& query,
                                 const BitUniverse& universe) const;
    [[nodiscard]] Result run_word(const Query& query,
                                  const WordUniverse& universe) const;
};

}  // namespace mtg::engine
