/// Randomized differential tests for the word-lane packed kernel:
/// PackedWordMemory lane-i behaviour must be bit-identical to a scalar
/// WordMemory carrying the same injected bit fault over random whole-word
/// operation sequences, and WordBatchRunner must reproduce the scalar
/// word::detects verdict lane-for-lane for every FaultKind — the scalar
/// word simulator is the ground-truth oracle for the word-oriented
/// bit-parallel kernel.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "util/rng.hpp"
#include "word/background.hpp"
#include "word/packed_word_memory.hpp"
#include "word/word_batch_runner.hpp"
#include "word/word_march.hpp"
#include "word/word_memory.hpp"

namespace mtg::word {
namespace {

using fault::FaultKind;

constexpr int kWords = 3;
constexpr int kWidth = 4;

/// Random placement of `kind` on a kWords × kWidth memory; two-cell kinds
/// land on any pair of distinct bit positions (intra- or inter-word).
InjectedBitFault random_placement(FaultKind kind, SplitMix64& rng) {
    const BitAddr a{rng.range(0, kWords - 1), rng.range(0, kWidth - 1)};
    if (!fault::is_two_cell(kind)) return InjectedBitFault::single(kind, a);
    for (;;) {
        const BitAddr b{rng.range(0, kWords - 1), rng.range(0, kWidth - 1)};
        if (!(b == a)) return InjectedBitFault::coupling(kind, a, b);
    }
}

/// Drives scalar and packed word memories through the same random
/// whole-word op sequence and compares every read result and the full bit
/// state after every operation.
void run_differential(const InjectedBitFault& fault, SplitMix64& rng, int lane,
                      int ops) {
    WordMemory scalar(kWords, kWidth);
    PackedWordMemory packed(kWords, kWidth);
    scalar.inject(fault);
    packed.inject(fault, LaneMask{1} << lane);
    const std::string label = fault_kind_name(fault.kind);

    PackedWordMemory::ReadResult got[64];
    for (int step = 0; step < ops; ++step) {
        const int choice = rng.range(0, 9);
        const int word = rng.range(0, kWords - 1);
        if (choice < 5) {
            const auto value =
                rng.next() & ((std::uint64_t{1} << kWidth) - 1);
            scalar.write(word, value);
            packed.write(word, value);
        } else if (choice < 9) {
            const std::vector<Trit> expected = scalar.read(word);
            packed.read(word, got);
            for (int b = 0; b < kWidth; ++b) {
                const Trit want = expected[static_cast<std::size_t>(b)];
                const bool known = (got[b].known >> lane) & 1u;
                ASSERT_EQ(known, is_known(want))
                    << "read w" << word << " bit " << b << " step " << step
                    << " fault " << label;
                if (known) {
                    ASSERT_EQ(static_cast<int>((got[b].value >> lane) & 1u),
                              trit_bit(want))
                        << "read w" << word << " bit " << b << " step "
                        << step << " fault " << label;
                }
            }
        } else {
            scalar.wait();
            packed.wait();
        }
        for (int w = 0; w < kWords; ++w)
            for (int b = 0; b < kWidth; ++b)
                ASSERT_EQ(packed.peek({w, b}, lane), scalar.peek({w, b}))
                    << "bit (" << w << ',' << b << ") step " << step
                    << " fault " << label;
    }
}

TEST(PackedWordDifferential, EveryFaultKindMatchesScalarOracle) {
    SplitMix64 rng(0x00D5EEDULL);
    for (FaultKind kind : fault::all_fault_kinds()) {
        for (int trial = 0; trial < 25; ++trial) {
            const InjectedBitFault fault = random_placement(kind, rng);
            const int lane = rng.range(0, kLaneCount - 1);
            run_differential(fault, rng, lane, 50);
            if (HasFatalFailure()) return;
        }
    }
}

TEST(PackedWordDifferential, IntraWordCouplingMatchesScalar) {
    // Intra-word pairs are the word-specific regime (simultaneous
    // aggressor/victim writes); force them explicitly for every two-cell
    // kind.
    SplitMix64 rng(0x1A7BA5EULL);
    for (FaultKind kind : fault::all_fault_kinds()) {
        if (!fault::is_two_cell(kind)) continue;
        for (int trial = 0; trial < 15; ++trial) {
            const int w = rng.range(0, kWords - 1);
            const int a = rng.range(0, kWidth - 1);
            int v = rng.range(0, kWidth - 2);
            if (v >= a) ++v;
            run_differential(
                InjectedBitFault::coupling(kind, {w, a}, {w, v}), rng,
                rng.range(0, kLaneCount - 1), 50);
            if (HasFatalFailure()) return;
        }
    }
}

TEST(PackedWordMemory, SixtyThreeLanesRunIndependently) {
    SplitMix64 rng(0x30D5ULL);
    std::vector<WordMemory> scalars;
    PackedWordMemory packed(kWords, kWidth);
    const auto& kinds = fault::all_fault_kinds();
    for (int lane = 1; lane < kLaneCount; ++lane) {
        const FaultKind kind =
            kinds[static_cast<std::size_t>(rng.below(kinds.size()))];
        const InjectedBitFault fault = random_placement(kind, rng);
        scalars.emplace_back(kWords, kWidth);
        scalars.back().inject(fault);
        packed.inject(fault, LaneMask{1} << lane);
    }
    WordMemory reference(kWords, kWidth);  // lane 0

    PackedWordMemory::ReadResult got[64];
    for (int step = 0; step < 150; ++step) {
        const int choice = rng.range(0, 9);
        const int word = rng.range(0, kWords - 1);
        if (choice < 5) {
            const auto value =
                rng.next() & ((std::uint64_t{1} << kWidth) - 1);
            reference.write(word, value);
            for (auto& s : scalars) s.write(word, value);
            packed.write(word, value);
        } else if (choice < 9) {
            const std::vector<Trit> ref = reference.read(word);
            packed.read(word, got);
            for (int b = 0; b < kWidth; ++b)
                ASSERT_EQ(((got[b].known >> 0) & 1u) != 0,
                          is_known(ref[static_cast<std::size_t>(b)]));
            for (int lane = 1; lane < kLaneCount; ++lane) {
                const std::vector<Trit> expected =
                    scalars[static_cast<std::size_t>(lane - 1)].read(word);
                for (int b = 0; b < kWidth; ++b) {
                    const Trit want = expected[static_cast<std::size_t>(b)];
                    const bool known = (got[b].known >> lane) & 1u;
                    ASSERT_EQ(known, is_known(want))
                        << "lane " << lane << " bit " << b;
                    if (known) {
                        ASSERT_EQ(
                            static_cast<int>((got[b].value >> lane) & 1u),
                            trit_bit(want))
                            << "lane " << lane << " bit " << b;
                    }
                }
            }
        } else {
            reference.wait();
            for (auto& s : scalars) s.wait();
            packed.wait();
        }
    }
    for (int w = 0; w < kWords; ++w)
        for (int b = 0; b < kWidth; ++b) {
            ASSERT_EQ(packed.peek({w, b}, 0), reference.peek({w, b}));
            for (int lane = 1; lane < kLaneCount; ++lane)
                ASSERT_EQ(
                    packed.peek({w, b}, lane),
                    scalars[static_cast<std::size_t>(lane - 1)].peek({w, b}))
                    << "bit (" << w << ',' << b << ") lane " << lane;
        }
}

TEST(PackedWordMemory, RejectsTwoFaultsInOneLane) {
    PackedWordMemory packed(2, 4);
    packed.inject(InjectedBitFault::single(FaultKind::Saf0, {0, 1}), 0b10);
    EXPECT_THROW(
        packed.inject(InjectedBitFault::single(FaultKind::Saf1, {1, 2}), 0b110),
        ContractViolation);
}

TEST(WordBatchRunner, MatchesScalarDetectsForEveryFaultKind) {
    SplitMix64 rng(0xD1FFULL);
    WordRunOptions opts;
    opts.words = kWords;
    opts.width = kWidth;
    const auto backgrounds = counting_backgrounds(kWidth);
    for (const char* name : {"MATS", "MATS++", "March C-"}) {
        const auto& test = march::find_march_test(name).test;
        const WordBatchRunner runner(test, backgrounds, opts);
        for (FaultKind kind : fault::all_fault_kinds()) {
            std::vector<InjectedBitFault> population;
            for (int trial = 0; trial < 8; ++trial)
                population.push_back(random_placement(kind, rng));
            const std::vector<bool> batched = runner.detects(population);
            for (std::size_t i = 0; i < population.size(); ++i)
                ASSERT_EQ(batched[i],
                          detects(test, backgrounds, population[i], opts))
                    << name << ' ' << fault_kind_name(kind) << " placement "
                    << i;
        }
    }
}

TEST(WordBatchRunner, PopulationsLargerThanOneChunk) {
    // 8 words × 16 bits = 128 single-bit placements: three packed chunks.
    WordRunOptions opts;
    opts.width = 16;
    const auto backgrounds = counting_backgrounds(16);
    const auto population =
        coverage_population(FaultKind::TfDown, opts);
    ASSERT_GT(population.size(), 2u * 63u);
    const auto& test = march::march_c_minus();
    const auto batched =
        WordBatchRunner(test, backgrounds, opts).detects(population);
    for (std::size_t i = 0; i < population.size(); ++i)
        ASSERT_TRUE(batched[i]) << i;
}

TEST(WordBatchRunner, CoversEverywhereMatchesScalarSweep) {
    // The batched covers_everywhere must agree with a scalar per-placement
    // sweep — both on fully-covered lists and on the known escape regimes
    // (solid-background CFid, MATS TF<v>).
    WordRunOptions opts;
    opts.width = 4;
    const struct {
        const char* march;
        bool counting;
        FaultKind kind;
    } cases[] = {
        {"March C-", true, FaultKind::CfidUp1},
        {"March C-", false, FaultKind::CfidUp1},
        {"March C-", true, FaultKind::CfstS1F0},
        {"MATS", false, FaultKind::TfDown},
        {"MATS", true, FaultKind::TfDown},
        {"MATS++", false, FaultKind::Saf0},
        {"March C-", true, FaultKind::CfinDown},
    };
    for (const auto& c : cases) {
        const auto& test = march::find_march_test(c.march).test;
        const auto backgrounds = c.counting ? counting_backgrounds(opts.width)
                                            : solid_background(opts.width);
        bool scalar = true;
        for (const InjectedBitFault& fault :
             coverage_population(c.kind, opts))
            scalar = scalar && detects(test, backgrounds, fault, opts);
        EXPECT_EQ(engine::Engine::global().covers_everywhere(
                      test, backgrounds, c.kind, opts),
                  scalar)
            << c.march << ' ' << fault_kind_name(c.kind) << " counting="
            << c.counting;
    }
}

TEST(CoveragePopulation, MatchesDocumentedPlacementCounts) {
    WordRunOptions opts;  // 8 words × 8 bits
    EXPECT_EQ(coverage_population(FaultKind::Saf1, opts).size(), 64u);
    // 8·7 intra-word pairs + 8·7 inter-word pairs + 1 cross pair.
    EXPECT_EQ(coverage_population(FaultKind::CfidUp0, opts).size(), 113u);
    WordRunOptions narrow;
    narrow.width = 1;
    narrow.words = 4;
    // width 1: no intra-word pairs, no cross pair — inter-word only.
    EXPECT_EQ(coverage_population(FaultKind::CfinUp, narrow).size(), 12u);
}

TEST(CoveragePopulation, NeverContainsDuplicatePlacements) {
    // Regression: at words == 1 the "cross-bit" pair {0,0} -> {0, width-1}
    // collided with the identical intra-word pair, double-counting one
    // placement in every two-cell coverage population (and skewing any
    // per-fault verdict vector built over it).
    const std::vector<FaultKind> kinds = {
        FaultKind::Saf0,   FaultKind::TfDown,   FaultKind::CfidUp0,
        FaultKind::CfinUp, FaultKind::CfstS1F0, FaultKind::AfMap,
    };
    for (int words : {1, 2, 3, 8}) {
        for (int width : {1, 2, 4, 8}) {
            WordRunOptions opts;
            opts.words = words;
            opts.width = width;
            for (const FaultKind kind : kinds) {
                const auto population = coverage_population(kind, opts);
                for (std::size_t i = 0; i < population.size(); ++i)
                    for (std::size_t j = i + 1; j < population.size(); ++j)
                        ASSERT_FALSE(population[i] == population[j])
                            << fault::fault_kind_name(kind) << " words="
                            << words << " width=" << width << " #" << i
                            << " == #" << j;
            }
        }
    }
}

}  // namespace
}  // namespace mtg::word
