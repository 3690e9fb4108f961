/// Sparse trace battery: the word trace path keeps its observations as
/// sparse per-(background, site) runs. Its traces must equal the scalar
/// word::guaranteed_trace oracle bit-for-bit across W ∈ {1, 4, 8} ×
/// workers {1, 2, hw} × every fault kind (forced intra-word pairs
/// included), and it must complete word memories a dense grid could not
/// allocate (words=4096 × width=8, RAM-gated smoke). Plus unit coverage
/// of the SparseGuaranteedRuns merge-walk itself.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "sim/trace_masks.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "word/background.hpp"
#include "word/word_batch_runner.hpp"
#include "word/word_trace.hpp"

namespace mtg::word {
namespace {

using fault::FaultKind;
using sim::detail::SparseGuaranteedRuns;

TEST(SparseGuaranteedRuns, FirstPassSeedsLaterPassesIntersect) {
    SparseGuaranteedRuns<sim::LaneMask> runs(1);
    runs.begin_pass();
    runs.append(0, 2, 0, 0b0110);
    runs.append(0, 5, 1, 0b0010);
    runs.commit_pass();
    ASSERT_EQ(runs.run(0).size(), 2u);

    // Second pass: (2,0) survives on one lane, (5,1) misses entirely, and
    // a fresh (7,0) appears — fresh keys die (not guaranteed), matched
    // keys AND their lanes, empty intersections drop.
    runs.begin_pass();
    runs.append(0, 2, 0, 0b0100);
    runs.append(0, 7, 0, 0b1000);
    runs.commit_pass();
    const auto& run = runs.run(0);
    ASSERT_EQ(run.size(), 1u);
    EXPECT_EQ(run[0].word, 2);
    EXPECT_EQ(run[0].bit, 0);
    EXPECT_EQ(run[0].lanes, 0b0100u);
    EXPECT_EQ(runs.entry_count(), 1u);
}

TEST(SparseGuaranteedRuns, CommitSortsDescendingPassOrder) {
    // A descending-address pass appends words high-to-low; commit must
    // canonicalise to ascending (word, bit) so the merge-walk and the
    // extraction both see sorted runs.
    SparseGuaranteedRuns<sim::LaneMask> runs(2);
    runs.begin_pass();
    runs.append(1, 9, 1, 0b1);
    runs.append(1, 9, 0, 0b1);
    runs.append(1, 3, 2, 0b1);
    runs.commit_pass();
    const auto& run = runs.run(1);
    ASSERT_EQ(run.size(), 3u);
    EXPECT_TRUE(run[0].word == 3 && run[0].bit == 2);
    EXPECT_TRUE(run[1].word == 9 && run[1].bit == 0);
    EXPECT_TRUE(run[2].word == 9 && run[2].bit == 1);
    EXPECT_TRUE(runs.run(0).empty());
}

/// reset() re-arms a sink for a new chunk in place, at a smaller or a
/// larger grid: nothing committed, no mark pending. The first pass after
/// it seeds the guaranteed state again instead of intersecting with the
/// previous chunk's.
TEST(TraceSinks, ResetStartsAFreshChunk) {
    SparseGuaranteedRuns<sim::LaneMask> runs(3);
    runs.begin_pass();
    runs.append(2, 4, 1, 0b110);
    runs.mark();
    runs.commit_pass();
    runs.reset(1);
    EXPECT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs.entry_count(), 0u);
    runs.begin_pass();
    runs.append(0, 3, 0, 0b10);
    runs.commit_pass();
    ASSERT_EQ(runs.run(0).size(), 1u);
    EXPECT_EQ(runs.run(0)[0].lanes, 0b10u);
    runs.reset(3);
    EXPECT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs.entry_count(), 0u);

    sim::detail::GuaranteedMasks<sim::LaneMask> masks;
    masks.reset(2, 0b1110);
    masks.begin_pass();
    (*masks.pass_grid())[1] |= 0b0110;
    masks.mark();
    masks.commit_pass();
    EXPECT_EQ(masks.guaranteed(0), 0u);
    EXPECT_EQ(masks.guaranteed(1), 0b0110u);
    masks.reset(1, 0b0011);
    EXPECT_EQ(masks.size(), 1u);
    EXPECT_EQ(masks.guaranteed(0), 0b0011u);
    masks.begin_pass();
    (*masks.pass_grid())[0] |= 0b0010;
    masks.commit_pass();
    EXPECT_EQ(masks.guaranteed(0), 0b0010u);
}

TEST(SparseGuaranteedRuns, EmptyPassClearsEverything) {
    SparseGuaranteedRuns<sim::LaneMask> runs(1);
    runs.begin_pass();
    runs.append(0, 0, 0, 0b10);
    runs.commit_pass();
    runs.begin_pass();  // pass with no failures at this coordinate
    runs.commit_pass();
    EXPECT_EQ(runs.entry_count(), 0u);
}

InjectedBitFault random_placement(FaultKind kind, SplitMix64& rng, int words,
                                  int width) {
    const BitAddr a{rng.range(0, words - 1), rng.range(0, width - 1)};
    if (!fault::is_two_cell(kind)) return InjectedBitFault::single(kind, a);
    for (;;) {
        const BitAddr b{rng.range(0, words - 1), rng.range(0, width - 1)};
        if (!(b == a)) return InjectedBitFault::coupling(kind, a, b);
    }
}

/// Mixed population: random placements of every kind plus forced
/// intra-word pairs for every two-cell kind (the word-specific regime).
std::vector<InjectedBitFault> mixed_population(SplitMix64& rng, int words,
                                               int width) {
    std::vector<InjectedBitFault> population;
    for (FaultKind kind : fault::all_fault_kinds()) {
        for (int trial = 0; trial < 4; ++trial)
            population.push_back(random_placement(kind, rng, words, width));
        if (!fault::is_two_cell(kind)) continue;
        const int w = rng.range(0, words - 1);
        const int a = rng.range(0, width - 1);
        int v = rng.range(0, width - 2);
        if (v >= a) ++v;
        population.push_back(
            InjectedBitFault::coupling(kind, {w, a}, {w, v}));
    }
    return population;
}

TEST(SparseTraceDifferential, MatchesDenseAcrossWidthsAndWorkers) {
    SplitMix64 rng(0x5BA25EULL);
    WordRunOptions opts;
    opts.words = 6;
    opts.width = 8;
    const auto backgrounds = counting_backgrounds(opts.width);
    const auto& test = march::march_c_minus();
    const auto population = mixed_population(rng, opts.words, opts.width);
    std::vector<WordRunTrace> oracle;
    oracle.reserve(population.size());
    for (const InjectedBitFault& fault : population)
        oracle.push_back(guaranteed_trace(test, backgrounds, fault, opts));

    util::ThreadPool one(1);
    util::ThreadPool two(2);
    util::ThreadPool* pools[] = {&one, &two, nullptr};  // 1, 2, hw
    const char* pool_names[] = {"1", "2", "hw"};
    for (int width : {1, 4, 8})
        for (int p = 0; p < 3; ++p) {
            const auto sparse =
                WordBatchRunner(test, backgrounds, opts, pools[p], width)
                    .run(population);
            ASSERT_EQ(sparse.size(), oracle.size());
            for (std::size_t i = 0; i < sparse.size(); ++i)
                ASSERT_EQ(sparse[i], oracle[i])
                    << "W=" << width << " workers=" << pool_names[p]
                    << " placement " << i;
        }
}

TEST(SparseTraceDifferential, MatchesScalarOracleOnIntraWordPairs) {
    WordRunOptions opts;
    opts.words = 4;
    opts.width = 8;
    const auto backgrounds = counting_backgrounds(opts.width);
    const auto& test = march::march_c_minus();
    std::vector<InjectedBitFault> population;
    for (FaultKind kind : fault::all_fault_kinds()) {
        if (!fault::is_two_cell(kind)) continue;
        population.push_back(
            InjectedBitFault::coupling(kind, {1, 2}, {1, 5}));
        population.push_back(
            InjectedBitFault::coupling(kind, {2, 7}, {2, 0}));
    }
    const auto traces =
        WordBatchRunner(test, backgrounds, opts).run(population);
    ASSERT_EQ(traces.size(), population.size());
    for (std::size_t i = 0; i < population.size(); ++i) {
        const WordRunTrace oracle =
            guaranteed_trace(test, backgrounds, population[i], opts);
        ASSERT_EQ(traces[i], oracle)
            << fault_kind_name(population[i].kind) << " placement " << i;
    }
}

/// Worker-count determinism: the full trace battery agrees between a
/// one-lane pool and pools of 2 and 4 lanes, whichever lane takes which
/// chunk.
TEST(SparseTraceDifferential, BitIdenticalAcrossWorkerCounts) {
    SplitMix64 rng(0xAFF1ULL);
    WordRunOptions opts;
    opts.words = 6;
    opts.width = 8;
    const auto backgrounds = counting_backgrounds(opts.width);
    const auto& test = march::march_c_minus();
    const auto population = mixed_population(rng, opts.words, opts.width);

    util::ThreadPool reference_pool(1);
    const auto reference =
        WordBatchRunner(test, backgrounds, opts, &reference_pool)
            .run(population);
    for (unsigned workers : {2u, 4u}) {
        util::ThreadPool pool(workers);
        const auto traces =
            WordBatchRunner(test, backgrounds, opts, &pool).run(population);
        ASSERT_EQ(traces.size(), reference.size());
        for (std::size_t i = 0; i < traces.size(); ++i)
            ASSERT_EQ(traces[i], reference[i])
                << "workers " << workers << " placement " << i;
    }
}

/// MemAvailable from /proc/meminfo in MiB; 0 when unreadable.
std::size_t mem_available_mib() {
    std::ifstream in("/proc/meminfo");
    std::string key;
    std::size_t kib = 0;
    while (in >> key >> kib) {
        if (key == "MemAvailable:") return kib / 1024;
        in.ignore(256, '\n');
    }
    return 0;
}

TEST(SparseTraceLargeMemory, Words4096Width8Completes) {
    // The point of the sparse grids: at words=4096 × width=8 the dense
    // observation grid alone is sites × backgrounds × 4096 × 8 blocks —
    // ~3.4 GiB of LaneBlock<8> per chunk for March C- — while the sparse
    // runs hold only the touched cells. Gated on RAM headroom for the
    // scalar oracle's own working set, not for the sparse run.
    if (mem_available_mib() < 1024)
        GTEST_SKIP() << "needs ~1 GiB available RAM";
    WordRunOptions opts;
    opts.words = 4096;
    opts.width = 8;
    const auto backgrounds = counting_backgrounds(opts.width);
    const auto& test = march::march_c_minus();
    std::vector<InjectedBitFault> population;
    population.push_back(
        InjectedBitFault::single(FaultKind::Saf0, {0, 0}));
    population.push_back(
        InjectedBitFault::single(FaultKind::TfUp, {4095, 7}));
    population.push_back(InjectedBitFault::coupling(
        FaultKind::CfidUp1, {100, 3}, {4000, 3}));
    population.push_back(InjectedBitFault::coupling(
        FaultKind::CfinDown, {2048, 1}, {2048, 6}));
    const auto traces =
        WordBatchRunner(test, backgrounds, opts).run(population);
    ASSERT_EQ(traces.size(), population.size());
    for (std::size_t i = 0; i < population.size(); ++i) {
        const WordRunTrace oracle =
            guaranteed_trace(test, backgrounds, population[i], opts);
        ASSERT_EQ(traces[i], oracle) << "placement " << i;
        EXPECT_TRUE(traces[i].detected) << "placement " << i;
    }
}

}  // namespace
}  // namespace mtg::word
