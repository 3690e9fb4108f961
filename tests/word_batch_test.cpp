/// Randomized differential tests for the word-lane packed kernel:
/// PackedWordMemory lane-i behaviour must be bit-identical to a scalar
/// WordMemory carrying the same injected bit fault over random whole-word
/// operation sequences, and WordBatchRunner must reproduce the scalar
/// word::detects verdict lane-for-lane for every FaultKind — the scalar
/// word simulator is the ground-truth oracle for the word-oriented
/// bit-parallel kernel.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "march/expansion.hpp"
#include "march/library.hpp"
#include "march/parser.hpp"
#include "util/rng.hpp"
#include "word/background.hpp"
#include "word/packed_word_memory.hpp"
#include "word/word_batch_runner.hpp"
#include "word/word_march.hpp"
#include "word/word_memory.hpp"
#include "word/word_trace.hpp"

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

// ---- static coupling filed by word, DRF entries --------------------------
//
// The packed memory files each CFst entry under its aggressor word and its
// victim word (once when they coincide) and enforces it on writes to those
// words only; wait() walks the DRF entries only. These populations put
// many such entries into one chunk: victims shared across aggressor words,
// a word that is victim word to some entries and aggressor word to others,
// and DRF of both polarities next to the other kinds a wait or a read
// must leave alone.

constexpr int kBookWords = 4;
constexpr int kBookWidth = 8;

FaultKind cfst_kind(std::size_t i) {
    constexpr FaultKind kinds[] = {FaultKind::CfstS0F0, FaultKind::CfstS0F1,
                                   FaultKind::CfstS1F0, FaultKind::CfstS1F1};
    return kinds[i % 4];
}

/// CFst only: every ordered intra-word pair of word 1, then inter-word
/// pairs whose victims share word 2 (aggressors in words 0, 1, 3) and
/// word 3 (aggressors in words 0, 2).
std::vector<InjectedBitFault> static_coupling_population() {
    std::vector<InjectedBitFault> population;
    for (int a = 0; a < kBookWidth; ++a)
        for (int v = 0; v < kBookWidth; ++v)
            if (a != v)
                population.push_back(InjectedBitFault::coupling(
                    cfst_kind(population.size()), {1, a}, {1, v}));
    for (const auto& [victim_word, aggressor_words] :
         {std::pair{2, std::vector{0, 1, 3}}, std::pair{3, std::vector{0, 2}}})
        for (int aw : aggressor_words)
            for (int bit = 0; bit < kBookWidth; ++bit)
                population.push_back(InjectedBitFault::coupling(
                    cfst_kind(population.size()), {aw, bit},
                    {victim_word, (bit + aw) % kBookWidth}));
    return population;
}

/// DRF only, both polarities; every word's bit 0 holds both.
std::vector<InjectedBitFault> retention_population() {
    std::vector<InjectedBitFault> population;
    for (int w = 0; w < kBookWords; ++w)
        for (int bit = 0; bit < kBookWidth; ++bit) {
            const FaultKind kind =
                (w + bit) % 2 == 0 ? FaultKind::Drf0 : FaultKind::Drf1;
            population.push_back(InjectedBitFault::single(kind, {w, bit}));
            if (bit == 0)
                population.push_back(InjectedBitFault::single(
                    kind == FaultKind::Drf0 ? FaultKind::Drf1
                                            : FaultKind::Drf0,
                    {w, bit}));
        }
    return population;
}

/// CFst mixed with AfMap, Af, RDF, DRDF, DRF and SAF: one single-bit
/// fault and one two-cell fault per bit position. DRF1 sits at positions
/// that hold no DRF0.
std::vector<InjectedBitFault> mixed_population() {
    constexpr FaultKind singles[] = {
        FaultKind::Saf0, FaultKind::Saf1,  FaultKind::Rdf0,
        FaultKind::Rdf1, FaultKind::Drdf0, FaultKind::Drdf1,
        FaultKind::Drf0, FaultKind::Drf1};
    constexpr FaultKind pairs[] = {FaultKind::CfstS0F1, FaultKind::AfMap,
                                   FaultKind::CfstS1F0, FaultKind::Af};
    std::vector<InjectedBitFault> population;
    for (int w = 0; w < kBookWords; ++w)
        for (int bit = 0; bit < kBookWidth; ++bit) {
            const int p = w * kBookWidth + bit;
            population.push_back(
                InjectedBitFault::single(singles[p % 8], {w, bit}));
            const BitAddr victim =
                p % 3 == 0 ? BitAddr{w, (bit + 5) % kBookWidth}
                           : BitAddr{(w + 1 + p % 2) % kBookWords,
                                     (bit + 3) % kBookWidth};
            population.push_back(
                InjectedBitFault::coupling(pairs[p % 4], {w, bit}, victim));
        }
    return population;
}

TEST(PackedBookkeeping, DetectsAndTracesMatchScalarOracles) {
    WordRunOptions opts;
    opts.words = kBookWords;
    opts.width = kBookWidth;
    const struct {
        const char* label;
        std::vector<InjectedBitFault> faults;
    } populations[] = {{"CFst", static_coupling_population()},
                       {"DRF", retention_population()},
                       {"mixed", mixed_population()}};
    const march::MarchTest tests[] = {
        march::march_ss(),
        march::find_march_test("MATS+Del").test,
        march::parse_march("{~(w0,del,r0,w1,del,r1)}"),
        march::parse_march("{^(w1); ~(del,del); ^(r1,w0); ~(del,del); ^(r0)}"),
    };
    for (const bool counting : {false, true}) {
        const auto backgrounds = counting ? counting_backgrounds(kBookWidth)
                                          : solid_background(kBookWidth);
        for (const march::MarchTest& test : tests)
            for (const auto& [label, population] : populations) {
                std::vector<bool> want_detects;
                std::vector<WordRunTrace> want_traces;
                for (const InjectedBitFault& fault : population) {
                    want_detects.push_back(
                        detects(test, backgrounds, fault, opts));
                    want_traces.push_back(
                        guaranteed_trace(test, backgrounds, fault, opts));
                }
                for (const int lane_width : {1, 4, 8}) {
                    const WordBatchRunner runner(test, backgrounds, opts,
                                                 nullptr, lane_width);
                    const std::vector<bool> got_detects =
                        runner.detects(population);
                    const std::vector<WordRunTrace> got_traces =
                        runner.run(population);
                    ASSERT_EQ(got_traces.size(), population.size());
                    for (std::size_t i = 0; i < population.size(); ++i) {
                        ASSERT_EQ(got_detects[i], want_detects[i])
                            << test.str() << ' ' << label << " counting="
                            << counting << " W=" << lane_width << " #" << i
                            << ' ' << fault_kind_name(population[i].kind);
                        ASSERT_TRUE(got_traces[i] == want_traces[i])
                            << test.str() << ' ' << label << " counting="
                            << counting << " W=" << lane_width << " #" << i
                            << ' ' << fault_kind_name(population[i].kind);
                    }
                }
            }
    }
}

/// A memory re-armed CFst -> DRF -> CFst (reset, then inject) must run
/// exactly like a freshly built one holding the same chunk: no static
/// entry or DRF entry of an earlier chunk may survive the reset.
TEST(PackedBookkeeping, RearmCfstDrfCfstMatchesFreshMemory) {
    using Block = sim::LaneBlock<8>;
    using Memory = PackedWordMemoryT<Block>;
    const auto inject = [](Memory& memory,
                           const std::vector<InjectedBitFault>& chunk) {
        for (std::size_t i = 0; i < chunk.size(); ++i)
            memory.inject(chunk[i],
                          sim::block_lane_bit<Block>(
                              sim::fault_lane(static_cast<int>(i))));
    };
    const auto cfst = static_coupling_population();
    const auto drf = retention_population();
    SplitMix64 rng(0xBEA7ULL);
    Memory armed(kBookWords, kBookWidth);
    const struct {
        const char* label;
        const std::vector<InjectedBitFault>* chunk;
    } steps[] = {{"CFst", &cfst}, {"DRF after CFst", &drf},
                 {"CFst after DRF", &cfst}};
    for (const auto& step : steps) {
        armed.reset(kBookWords, kBookWidth);
        inject(armed, *step.chunk);
        Memory fresh(kBookWords, kBookWidth);
        inject(fresh, *step.chunk);
        Memory::ReadResult got[kBookWidth], want[kBookWidth];
        for (int op = 0; op < 120; ++op) {
            const int choice = rng.range(0, 9);
            const int word = rng.range(0, kBookWords - 1);
            if (choice < 5) {
                const auto value =
                    rng.next() & ((std::uint64_t{1} << kBookWidth) - 1);
                armed.write(word, value);
                fresh.write(word, value);
            } else if (choice < 8) {
                armed.read(word, got);
                fresh.read(word, want);
                for (int bit = 0; bit < kBookWidth; ++bit) {
                    ASSERT_TRUE(got[bit].value == want[bit].value)
                        << step.label << " op " << op << " bit " << bit;
                    ASSERT_TRUE(got[bit].known == want[bit].known)
                        << step.label << " op " << op << " bit " << bit;
                }
            } else {
                armed.wait();
                fresh.wait();
            }
        }
        for (int w = 0; w < kBookWords; ++w)
            for (int bit = 0; bit < kBookWidth; ++bit)
                for (int lane = 0; lane < sim::block_lane_count<Block>;
                     ++lane)
                    ASSERT_EQ(armed.peek({w, bit}, lane),
                              fresh.peek({w, bit}, lane))
                        << step.label << " bit (" << w << ',' << bit
                        << ") lane " << lane;
    }
}

// ---- transition coupling filed by aggressor bit --------------------------
//
// The packed memory files each CFin/CFid entry under its aggressor's flat
// bit index and the transition it needs (rising or falling), and a write
// walks a bit's list only when some lane of that bit took that
// transition; Af entries stay in one list per word and follow every
// write to it. This population puts all seven kinds on every aggressor
// bit, each once with a victim in the aggressor's word and once with a
// victim in another word, so every list is shared by lanes of several
// plane words and a write moves both directions within a word under the
// counting backgrounds.

std::vector<InjectedBitFault> transition_coupling_population() {
    constexpr FaultKind kinds[] = {
        FaultKind::CfinUp,    FaultKind::CfinDown,  FaultKind::CfidUp0,
        FaultKind::CfidUp1,   FaultKind::CfidDown0, FaultKind::CfidDown1,
        FaultKind::Af};
    std::vector<InjectedBitFault> population;
    for (int w = 0; w < kBookWords; ++w)
        for (int bit = 0; bit < kBookWidth; ++bit)
            for (int k = 0; k < 7; ++k) {
                const BitAddr aggressor{w, bit};
                population.push_back(InjectedBitFault::coupling(
                    kinds[k], aggressor, {w, (bit + 1 + k) % kBookWidth}));
                population.push_back(InjectedBitFault::coupling(
                    kinds[k], aggressor,
                    {(w + 1 + k % 3) % kBookWords, (bit + k) % kBookWidth}));
            }
    return population;
}

/// A seeded random well-formed test: an opening write, then per element
/// one to three ops that read the value last written or write either
/// value, in a random address order.
march::MarchTest random_march_test(SplitMix64& rng) {
    std::vector<march::MarchElement> elements;
    int value = rng.range(0, 1);
    const int count = rng.range(2, 6);
    for (int e = 0; e < count; ++e) {
        std::vector<march::MarchOp> ops;
        if (e == 0) ops.push_back(march::MarchOp::w(value));
        for (int o = rng.range(e == 0 ? 0 : 1, 3); o > 0; --o) {
            if (rng.range(0, 1) == 0) {
                ops.push_back(march::MarchOp::r(value));
            } else {
                value = rng.range(0, 1);
                ops.push_back(march::MarchOp::w(value));
            }
        }
        elements.emplace_back(
            static_cast<march::AddressOrder>(rng.range(0, 2)),
            std::move(ops));
    }
    return march::MarchTest(std::move(elements));
}

TEST(PackedBookkeeping, CouplingListsByAggressorBitMatchScalarOracles) {
    const auto population = transition_coupling_population();
    ASSERT_EQ(population.size(), 448u);  // 8 plane words: one W=8 chunk
    const WordRunOptions opts = {.words = kBookWords, .width = kBookWidth};
    const auto backgrounds = counting_backgrounds(kBookWidth);
    std::vector<std::pair<std::string, march::MarchTest>> tests;
    for (const auto& named : march::known_march_tests())
        tests.emplace_back(named.name, named.test);
    SplitMix64 rng(0xC0B1EULL);
    for (int i = 0; i < 8; ++i) {
        const march::MarchTest test = random_march_test(rng);
        tests.emplace_back(test.str(), test);
    }
    std::size_t detected = 0;
    for (const auto& [name, test] : tests) {
        std::vector<bool> want_detects;
        std::vector<WordRunTrace> want_traces;
        for (const InjectedBitFault& fault : population) {
            want_detects.push_back(detects(test, backgrounds, fault, opts));
            want_traces.push_back(
                guaranteed_trace(test, backgrounds, fault, opts));
            detected += want_detects.back() ? 1 : 0;
        }
        for (const int lane_width : {1, 4, 8}) {
            const WordBatchRunner runner(test, backgrounds, opts, nullptr,
                                         lane_width);
            const std::vector<bool> got_detects = runner.detects(population);
            const std::vector<WordRunTrace> got_traces =
                runner.run(population);
            ASSERT_EQ(got_traces.size(), population.size());
            for (std::size_t i = 0; i < population.size(); ++i) {
                ASSERT_EQ(got_detects[i], want_detects[i])
                    << name << " W=" << lane_width << " #" << i << ' '
                    << fault_kind_name(population[i].kind);
                ASSERT_TRUE(got_traces[i] == want_traces[i])
                    << name << " W=" << lane_width << " #" << i << ' '
                    << fault_kind_name(population[i].kind);
            }
        }
    }
    // Both verdicts occur, so neither a list that never fires nor one that
    // fires everywhere could pass.
    EXPECT_GT(detected, 0u);
    EXPECT_LT(detected, tests.size() * population.size());
}

/// A memory re-armed between chunks whose CFin/CFid entries sit on the
/// same aggressor bits must run exactly like a freshly built one holding
/// the new chunk: no list entry of an earlier chunk may survive reset().
TEST(PackedBookkeeping, RearmCouplingListsMatchesFreshMemory) {
    using Block = sim::LaneBlock<8>;
    using Memory = PackedWordMemoryT<Block>;
    const auto inject = [](Memory& memory,
                           const std::vector<InjectedBitFault>& chunk) {
        for (std::size_t i = 0; i < chunk.size(); ++i)
            memory.inject(chunk[i],
                          sim::block_lane_bit<Block>(
                              sim::fault_lane(static_cast<int>(i))));
    };
    const auto coupling = transition_coupling_population();
    // The same faults in reverse lane order, and SAF on every bit: the
    // lanes that held a coupling fault hold another fault or none.
    const std::vector<InjectedBitFault> reversed(coupling.rbegin(),
                                                 coupling.rend());
    std::vector<InjectedBitFault> saf;
    for (int w = 0; w < kBookWords; ++w)
        for (int bit = 0; bit < kBookWidth; ++bit)
            saf.push_back(InjectedBitFault::single(
                (w + bit) % 2 == 0 ? FaultKind::Saf0 : FaultKind::Saf1,
                {w, bit}));
    SplitMix64 rng(0x2E5E7ULL);
    Memory armed(kBookWords, kBookWidth);
    const struct {
        const char* label;
        const std::vector<InjectedBitFault>* chunk;
    } steps[] = {{"coupling", &coupling},
                 {"reversed after coupling", &reversed},
                 {"SAF after coupling", &saf},
                 {"coupling after SAF", &coupling}};
    for (const auto& step : steps) {
        armed.reset(kBookWords, kBookWidth);
        inject(armed, *step.chunk);
        Memory fresh(kBookWords, kBookWidth);
        inject(fresh, *step.chunk);
        Memory::ReadResult got[kBookWidth], want[kBookWidth];
        for (int op = 0; op < 160; ++op) {
            const int word = rng.range(0, kBookWords - 1);
            if (rng.range(0, 2) != 0) {
                const auto value =
                    rng.next() & ((std::uint64_t{1} << kBookWidth) - 1);
                armed.write(word, value);
                fresh.write(word, value);
                continue;
            }
            armed.read(word, got);
            fresh.read(word, want);
            for (int bit = 0; bit < kBookWidth; ++bit) {
                ASSERT_TRUE(got[bit].value == want[bit].value)
                    << step.label << " op " << op << " bit " << bit;
                ASSERT_TRUE(got[bit].known == want[bit].known)
                    << step.label << " op " << op << " bit " << bit;
            }
        }
    }
}

// ---- ⇕ expansion tree ------------------------------------------------------
//
// One pass walks every ⇕ choice of a chunk as a depth-first tree: at a
// branch point it snapshots the value/known planes, the path's mismatch
// mask and the trace marks, runs the element ascending down to a leaf,
// then restores them and runs it descending; later backgrounds reuse the
// choice and never branch (word_kernels.hpp). The cases below put branch
// points where a lost plane, mask or mark changes a verdict or a trace.

/// Four random placements of every fault kind on the kBookWords ×
/// kBookWidth memory; two-cell kinds land on intra- and inter-word pairs.
std::vector<InjectedBitFault> all_kinds_population() {
    SplitMix64 rng(0x7EEULL);
    const auto any_bit = [&rng] {
        return BitAddr{rng.range(0, kBookWords - 1),
                       rng.range(0, kBookWidth - 1)};
    };
    std::vector<InjectedBitFault> population;
    for (int round = 0; round < 4; ++round)
        for (FaultKind kind : fault::all_fault_kinds()) {
            const BitAddr a = any_bit();
            if (!fault::is_two_cell(kind)) {
                population.push_back(InjectedBitFault::single(kind, a));
                continue;
            }
            BitAddr b = any_bit();
            while (b == a) b = any_bit();
            population.push_back(InjectedBitFault::coupling(kind, a, b));
        }
    return population;
}

/// Detects, DetectsAll and Traces of `population` at lane widths 1, 4
/// and 8 against the scalar WordMemory oracle. DetectsAll is also asked
/// of the detected faults alone, so that a walk with no escape runs to its
/// last leaf.
void expect_tree_matches_scalar(const std::string& label,
                                const march::MarchTest& test,
                                const std::vector<Background>& backgrounds,
                                const std::vector<InjectedBitFault>& population,
                                const WordRunOptions& opts) {
    std::vector<bool> want(population.size());
    std::vector<InjectedBitFault> detected;
    std::vector<WordRunTrace> want_traces;
    for (std::size_t i = 0; i < population.size(); ++i) {
        want[i] = detects(test, backgrounds, population[i], opts);
        if (want[i]) detected.push_back(population[i]);
        want_traces.push_back(
            guaranteed_trace(test, backgrounds, population[i], opts));
    }
    ASSERT_FALSE(detected.empty()) << label;
    const bool want_all = detected.size() == population.size();
    for (int lane_width : {1, 4, 8}) {
        const WordBatchRunner runner(test, backgrounds, opts, nullptr,
                                     lane_width);
        const std::string where = label + " W" + std::to_string(lane_width);
        EXPECT_EQ(runner.detects(population), want) << where;
        EXPECT_EQ(runner.detects_all(population), want_all) << where;
        EXPECT_TRUE(runner.detects_all(detected)) << where;
        const std::vector<WordRunTrace> traces = runner.run(population);
        ASSERT_EQ(traces.size(), population.size()) << where;
        for (std::size_t i = 0; i < population.size(); ++i)
            ASSERT_TRUE(traces[i] == want_traces[i])
                << where << " #" << i << ' '
                << fault_kind_name(population[i].kind);
    }
}

WordRunOptions book_options(int max_any) {
    return {.words = kBookWords, .width = kBookWidth,
            .max_any_expansion = max_any};
}

/// ⇕ elements first, in the middle and last, alone and together, under
/// the solid and the counting backgrounds: under counting backgrounds
/// every ⇕ element recurs once per background, on the choice taken at
/// its first occurrence.
TEST(ExpansionTree, BranchPointsFirstMiddleAndLast) {
    const auto population = all_kinds_population();
    for (const bool counting : {false, true}) {
        const auto backgrounds = counting ? counting_backgrounds(kBookWidth)
                                          : solid_background(kBookWidth);
        for (const char* text :
             {"{~(w0); ^(r0,w1); v(r1,w0); ^(r0)}",
              "{^(w0); ^(r0,w1); ~(r1,w0); v(r0,w1); ^(r1)}",
              "{^(w1); v(r1,w0); ^(r0,w1); ~(r1,w0,r0)}",
              "{~(w0); ^(r0,w1); ~(r1,w0); v(r0,w1); ~(r1)}",
              "{~(w0); ^(r0,r0,w0,r0,w1); ^(r1,r1,w1,r1,w0); "
              "v(r0,r0,w0,r0,w1); v(r1,r1,w1,r1,w0); ~(r0)}"})
            expect_tree_matches_scalar(
                std::string(text) + (counting ? " counting" : " solid"),
                march::parse_march(text), backgrounds, population,
                book_options(4));
    }
}

/// Past max_any_expansion the choices are the two uniform sweeps, so the
/// first ⇕ element is the only branch point and the later ones follow it.
TEST(ExpansionTree, OverTheCapOnlyTheFirstAnyElementBranches) {
    const auto test =
        march::parse_march("{^(w0); ~(r0,w1); ~(r1,w0); ^(r0,w1); ~(r1)}");
    const WordRunOptions opts = book_options(2);
    ASSERT_EQ(march::any_order_count(test), opts.max_any_expansion + 1);
    expect_tree_matches_scalar("k = cap + 1", test,
                               counting_backgrounds(kBookWidth),
                               all_kinds_population(), opts);
}

/// MATS+Del's ⇕(del) elements branch although a wait is order-free; the
/// DRF lanes decay on them between the branch's two sides.
TEST(ExpansionTree, RetentionDelaysUnderAnyOrder) {
    auto population = retention_population();
    for (const InjectedBitFault& fault : all_kinds_population())
        population.push_back(fault);
    expect_tree_matches_scalar("MATS+Del",
                               march::find_march_test("MATS+Del").test,
                               counting_backgrounds(kBookWidth), population,
                               book_options(4));
}

/// Intra-word CFst next to AfMap in one chunk at word width 8: a write's
/// CFst entries filed by aggressor are enforced by sense without reading
/// the aggressor, while AfMap lanes redirect the same writes.
TEST(ExpansionTree, IntraWordStaticCouplingBesideDecoderMaps) {
    std::vector<InjectedBitFault> population;
    for (int a = 0; a < kBookWidth; ++a)
        for (int v = 0; v < kBookWidth; ++v)
            if (a != v) {
                population.push_back(InjectedBitFault::coupling(
                    cfst_kind(population.size()), {1, a}, {1, v}));
                population.push_back(InjectedBitFault::coupling(
                    FaultKind::AfMap, {(a + v) % kBookWords, a},
                    {(a + v + 1) % kBookWords, v}));
            }
    ASSERT_LE(population.size(),
              static_cast<std::size_t>(sim::block_fault_lanes<
                                       sim::LaneBlock<8>>));
    for (const char* name : {"March C-", "March SS"})
        expect_tree_matches_scalar(name, march::find_march_test(name).test,
                                   counting_backgrounds(kBookWidth),
                                   population, book_options(4));
}

/// Six ⇕ elements give 64 choices, a choice tree six branch points
/// deep; at W=8 the one chunk runs the zmm pass on an AVX-512F host.
TEST(ExpansionTree, ZmmSizedJob) {
    const auto test = march::parse_march(
        "{~(w0); ~(r0,w1); ~(r1,w0); ~(r0,w1); ~(r1,w0); ~(r0,w1); ^(r1)}");
    const WordRunOptions opts = book_options(6);
    ASSERT_EQ(expansion_choices(test, opts).size(), 64u);
    expect_tree_matches_scalar("zmm", test, solid_background(kBookWidth),
                               mixed_population(), opts);
}

}  // namespace
}  // namespace mtg::word
