/// The re-entrancy hammer: N threads fire mixed queries (all four Wants,
/// both universes, permuted kind lists) at ONE shared Engine, with the
/// population cache squeezed to a budget small enough that evictions and
/// rebuilds happen mid-run — and every answer must be bit-identical to a
/// single-threaded replay of the same query sequence. This is the test
/// the query server's "one long-lived Engine under concurrent sessions"
/// design rests on; CI additionally runs it under ThreadSanitizer
/// (-DMTG_SANITIZE=thread), where any data race in the Engine, the
/// caches, the backends or the thread pool is a hard failure.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "word/background.hpp"

namespace mtg {
namespace {

using engine::BitUniverse;
using engine::Engine;
using engine::EngineConfig;
using engine::Query;
using engine::Result;
using engine::Want;
using engine::WordUniverse;
using fault::FaultKind;

bool results_eq(const Result& a, const Result& b) {
    return a.detected == b.detected && a.all == b.all &&
           a.traces.size() == b.traces.size() &&
           a.word_traces == b.word_traces &&
           a.instances == b.instances &&
           [&] {
               for (std::size_t i = 0; i < a.traces.size(); ++i)
                   if (a.traces[i].detected != b.traces[i].detected ||
                       a.traces[i].failing_reads !=
                           b.traces[i].failing_reads ||
                       a.traces[i].failing_observations !=
                           b.traces[i].failing_observations)
                       return false;
               return true;
           }();
}

/// The mixed workload: every (want × universe) pair, several kind lists
/// including permutations and duplicates of one another (which must land
/// on one cache entry), two memory sizes. Small enough to run in
/// seconds, large enough that the kind expansions overflow the tiny
/// cache budget below and force mid-run evictions.
std::vector<Query> build_workload() {
    const auto& test = march::march_c_minus();
    const auto& mats = march::find_march_test("MATS+").test;
    const std::vector<std::vector<FaultKind>> bit_kind_lists = {
        {FaultKind::Saf0, FaultKind::TfUp},
        {FaultKind::TfUp, FaultKind::Saf0},  // permutation of the above
        {FaultKind::CfidUp0},
        {FaultKind::CfidUp0, FaultKind::CfidUp0, FaultKind::Rdf1},
        {FaultKind::Rdf1, FaultKind::CfidUp0},  // dedup/permute of above
    };
    std::vector<Query> workload;
    for (const auto& kinds : bit_kind_lists) {
        for (const int memory_size : {8, 12}) {
            for (const Want want :
                 {Want::Detects, Want::DetectsAll, Want::Traces,
                  Want::DictionarySweep}) {
                Query query;
                query.test = memory_size == 8 ? test : mats;
                query.universe = BitUniverse{
                    {.memory_size = memory_size, .max_any_expansion = 6}};
                query.want = want;
                query.kinds = kinds;
                workload.push_back(std::move(query));
            }
        }
    }
    word::WordRunOptions word_opts;
    word_opts.words = 6;
    word_opts.width = 4;
    const auto backgrounds = word::counting_backgrounds(word_opts.width);
    for (const auto& kinds : {std::vector<FaultKind>{FaultKind::CfidUp1},
                              std::vector<FaultKind>{FaultKind::CfidUp1,
                                                     FaultKind::Saf1},
                              std::vector<FaultKind>{FaultKind::Saf1,
                                                     FaultKind::CfidUp1}}) {
        for (const Want want :
             {Want::Detects, Want::DetectsAll, Want::Traces,
              Want::DictionarySweep}) {
            Query query;
            query.test = test;
            query.universe = WordUniverse{backgrounds, word_opts};
            query.want = want;
            query.kinds = kinds;
            workload.push_back(std::move(query));
        }
    }
    return workload;
}

TEST(EngineHammer, ConcurrentMixedQueriesMatchSingleThreadedReplay) {
    const std::vector<Query> workload = build_workload();

    // Reference answers, single-threaded, on a separate session.
    const Engine reference;
    std::vector<Result> expected;
    expected.reserve(workload.size());
    for (const Query& query : workload)
        expected.push_back(reference.run(query));

    // The hammered session: one Engine, cache budget small enough that
    // the workload's expansions cross it repeatedly (the largest bit
    // list at n=12 alone is ~500 placements).
    EngineConfig config;
    config.cache = std::make_shared<engine::PopulationCache>(500);
    const Engine hammered(config);

    constexpr int kThreads = 8;
    constexpr int kRounds = 6;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Each thread walks the workload from a different phase so
            // distinct queries overlap in time.
            const std::size_t size = workload.size();
            for (int round = 0; round < kRounds; ++round) {
                for (std::size_t i = 0; i < size; ++i) {
                    const std::size_t index =
                        (i + static_cast<std::size_t>(t) * 7) % size;
                    const Result got = hammered.run(workload[index]);
                    if (!results_eq(got, expected[index]))
                        mismatches.fetch_add(1,
                                             std::memory_order_relaxed);
                }
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0);

    const auto stats = hammered.population_cache()->stats();
    // The point of the tiny budget: evictions really happened mid-run,
    // so the hammer covered the rebuild-under-contention path.
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_LE(stats.retained_faults, hammered.population_cache()->fault_budget());
}

TEST(EngineHammer, SharedCacheWarmsAcrossSessions) {
    // Two Engines handed one PopulationCache (the query server's
    // interactive/bulk pairing): an expansion missed by one session must
    // be a pointer-identical hit for the other.
    auto cache = std::make_shared<engine::PopulationCache>();
    EngineConfig config_a;
    config_a.cache = cache;
    EngineConfig config_b;
    config_b.cache = cache;
    const Engine a(config_a);
    const Engine b(config_b);
    ASSERT_EQ(a.population_cache().get(), cache.get());
    ASSERT_EQ(b.population_cache().get(), cache.get());

    const std::vector<FaultKind> kinds = {FaultKind::CfidUp0,
                                          FaultKind::Saf0};
    const auto from_a = a.bit_population(kinds, 10);
    const auto from_b = b.bit_population({FaultKind::Saf0,
                                          FaultKind::CfidUp0}, 10);
    EXPECT_EQ(from_a.get(), from_b.get());
    const auto stats = cache->stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_GE(stats.hits, 1u);
}

}  // namespace
}  // namespace mtg
