#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "march/library.hpp"
#include "word/background.hpp"
#include "word/word_march.hpp"
#include "word/word_memory.hpp"

namespace mtg::word {
namespace {

using fault::FaultKind;

TEST(Background, BitAccessAndComplement) {
    Background bg{8, 0b00001111};
    EXPECT_EQ(bg.bit(0), 1);
    EXPECT_EQ(bg.bit(3), 1);
    EXPECT_EQ(bg.bit(4), 0);
    EXPECT_EQ(bg.complement().bits, 0b11110000u);
    EXPECT_EQ(bg.str(), "00001111");
}

TEST(Background, CountingSetForWidth8) {
    const auto set = counting_backgrounds(8);
    ASSERT_EQ(set.size(), 4u);  // solid + log2(8)
    EXPECT_EQ(set[0].str(), "00000000");
    EXPECT_EQ(set[1].str(), "10101010");
    EXPECT_EQ(set[2].str(), "11001100");
    EXPECT_EQ(set[3].str(), "11110000");
}

TEST(Background, CountingSetSeparatesAllPairs) {
    for (int width : {1, 2, 4, 8, 16, 32, 64})
        EXPECT_TRUE(separates_all_bit_pairs(counting_backgrounds(width)))
            << width;
}

TEST(Background, SolidAloneSeparatesNothing) {
    EXPECT_FALSE(separates_all_bit_pairs(solid_background(8)));
    // Except trivially for 1-bit words.
    EXPECT_TRUE(separates_all_bit_pairs(solid_background(1)));
}

TEST(Background, RejectsNonPowerOfTwo) {
    EXPECT_THROW((void)counting_backgrounds(12), ContractViolation);
    EXPECT_THROW((void)counting_backgrounds(0), ContractViolation);
}

TEST(WordMemory, ReadsBackWrites) {
    WordMemory memory(4, 8);
    memory.write(2, 0b10110001);
    const auto got = memory.read(2);
    for (int b = 0; b < 8; ++b) {
        EXPECT_TRUE(is_known(got[static_cast<std::size_t>(b)]));
        EXPECT_EQ(trit_bit(got[static_cast<std::size_t>(b)]),
                  (0b10110001 >> b) & 1);
    }
    // Unwritten words stay unknown.
    EXPECT_EQ(memory.peek({0, 0}), Trit::X);
}

TEST(WordMemory, SingleBitStuckAt) {
    WordMemory memory(4, 8);
    memory.inject(InjectedBitFault::single(FaultKind::Saf0, {1, 3}));
    memory.write(1, 0xFF);
    const auto got = memory.read(1);
    EXPECT_EQ(trit_bit(got[3]), 0);
    EXPECT_EQ(trit_bit(got[2]), 1);
}

TEST(WordMemory, IntraWordCouplingCorruptsAfterOwnWrite) {
    // CFid<^,1> aggressor bit 0, victim bit 1 of the same word: writing a
    // word that raises bit 0 while writing 0 to bit 1 leaves bit 1 at 1.
    WordMemory memory(2, 4);
    memory.inject(
        InjectedBitFault::coupling(FaultKind::CfidUp1, {0, 0}, {0, 1}));
    memory.write(0, 0b0000);
    memory.write(0, 0b0001);  // bit0 rises, bit1 written 0 -> forced to 1
    const auto got = memory.read(0);
    EXPECT_EQ(trit_bit(got[1]), 1);
    EXPECT_EQ(trit_bit(got[0]), 1);
}

TEST(WordMemory, IntraWordCouplingInvisibleWhenVictimAgrees) {
    WordMemory memory(2, 4);
    memory.inject(
        InjectedBitFault::coupling(FaultKind::CfidUp1, {0, 0}, {0, 1}));
    memory.write(0, 0b0000);
    memory.write(0, 0b0011);  // victim written 1 anyway: no visible effect
    EXPECT_EQ(trit_bit(memory.read(0)[1]), 1);
}

TEST(WordMemory, InterWordCoupling) {
    WordMemory memory(4, 8);
    memory.inject(
        InjectedBitFault::coupling(FaultKind::CfinUp, {0, 2}, {3, 5}));
    memory.write(3, 0x00);
    memory.write(0, 0x00);
    memory.write(0, 0x04);  // bit 2 rises -> victim (3,5) inverts
    EXPECT_EQ(trit_bit(memory.read(3)[5]), 1);
}

TEST(WordMemory, RetentionDecay) {
    WordMemory memory(2, 8);
    memory.inject(InjectedBitFault::single(FaultKind::Drf0, {1, 7}));
    memory.write(1, 0xFF);
    memory.wait();
    EXPECT_EQ(trit_bit(memory.read(1)[7]), 0);
}

TEST(WordMarch, ComplexityScalesWithBackgrounds) {
    EXPECT_EQ(word_complexity(march::march_c_minus(), counting_backgrounds(8)),
              40);  // 10n x 4 backgrounds
    EXPECT_EQ(word_complexity(march::mats(), solid_background(16)), 4);
}

TEST(WordMarch, WellFormedUnderAllBackgrounds) {
    for (const char* name : {"MATS", "MATS++", "March C-"})
        EXPECT_TRUE(is_well_formed(march::find_march_test(name).test,
                                   counting_backgrounds(8)))
            << name;
}

TEST(WordMarch, SingleBitFaultsNeedOnlySolid) {
    const engine::Engine& engine = engine::Engine::global();
    EXPECT_TRUE(engine.covers_everywhere(
        march::mats_plus_plus(), solid_background(8), FaultKind::Saf0));
    EXPECT_TRUE(engine.covers_everywhere(
        march::mats_plus_plus(), solid_background(8), FaultKind::TfDown));
}

/// The headline theorem of the word-oriented extension: a solid background
/// misses intra-word CFid<^,1> (aggressor and victim are always written the
/// same value, so the forced 1 is never observable), while the counting
/// background set catches every intra-word pair.
TEST(WordMarch, IntraWordCouplingNeedsCountingBackgrounds) {
    const auto& test = march::march_c_minus();
    const engine::Engine& engine = engine::Engine::global();
    EXPECT_FALSE(engine.covers_everywhere(test, solid_background(8),
                                          FaultKind::CfidUp1));
    EXPECT_TRUE(engine.covers_everywhere(test, counting_backgrounds(8),
                                         FaultKind::CfidUp1));
}

TEST(WordMarch, InterWordCouplingCoveredEvenWithSolid) {
    // Inter-word victims are independent cells: March C- catches them under
    // any background.
    const auto& test = march::march_c_minus();
    WordRunOptions opts;
    for (int wa : {0, 3}) {
        for (int wv : {1, 6}) {
            if (wa == wv) continue;
            EXPECT_TRUE(detects(test, solid_background(8),
                                InjectedBitFault::coupling(FaultKind::CfidUp0,
                                                           {wa, 2}, {wv, 2}),
                                opts));
        }
    }
}

TEST(WordMarch, FullStaticListWithCountingBackgrounds) {
    const auto& test = march::march_c_minus();
    const auto backgrounds = counting_backgrounds(4);
    WordRunOptions opts;
    opts.width = 4;
    for (FaultKind kind :
         fault::parse_fault_kinds("SAF,TF,CFin,CFid,CFst")) {
        EXPECT_TRUE(engine::Engine::global().covers_everywhere(
            test, backgrounds, kind, opts))
            << fault::fault_kind_name(kind);
    }
}

TEST(WordMarch, SolidBackgroundPreservesBitwiseEscapes) {
    // MATS misses TF<v> bit-wise, and a single solid background cannot
    // repair that (no falling transition is ever read back).
    EXPECT_FALSE(engine::Engine::global().covers_everywhere(
        march::mats(), solid_background(8), FaultKind::TfDown));
}

TEST(WordMarch, BackgroundBoundariesAddTransitions) {
    // Consecutive backgrounds run on the same memory: re-initialising from
    // ~b_k to b_(k+1) exercises falling writes that the bit-oriented test
    // alone never reads — MATS + counting backgrounds does catch TF<v>.
    EXPECT_TRUE(engine::Engine::global().covers_everywhere(
        march::mats(), counting_backgrounds(8), FaultKind::TfDown));
}

}  // namespace
}  // namespace mtg::word
