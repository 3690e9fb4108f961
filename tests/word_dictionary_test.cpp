/// Word diagnosis dictionary tests: the word-path dictionary must
/// reproduce the bit-path FaultDictionary bucket-for-bucket in the regime
/// where both apply (width 1, solid background, words = memory_size — a
/// word test degenerates to the bit test), and its ambiguity-class /
/// resolution edge cases (escape bucket, identical signatures, single-
/// instance classes) must behave like the bit path's.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "diagnosis/dictionary.hpp"
#include "diagnosis/word_dictionary.hpp"
#include "march/library.hpp"
#include "march/parser.hpp"
#include "sim/march_runner.hpp"
#include "word/background.hpp"
#include "word/word_batch_runner.hpp"

namespace mtg::diagnosis {
namespace {

using fault::FaultKind;

/// The word options that make a word test degenerate to the bit test of
/// sim::RunOptions{memory_size = 8}.
word::WordRunOptions bit_equivalent_opts() {
    word::WordRunOptions opts;
    opts.words = 8;
    opts.width = 1;
    opts.max_any_expansion = sim::RunOptions{}.max_any_expansion;
    return opts;
}

/// Maps a bit-path signature into the word-path encoding: cell c becomes
/// word c read under background 0 with failing bit mask 0b1.
WordSignature lifted(const Signature& sig) {
    WordSignature out;
    for (const sim::Observation& obs : sig.failing)
        out.failing.push_back({0, obs.site, obs.cell, 1});
    return out;
}

TEST(WordDictionary, EquivalentToBitDictionaryAtWidthOne) {
    const auto opts = bit_equivalent_opts();
    const auto backgrounds = word::solid_background(1);
    for (const char* kinds_text :
         {"SAF,TF", "SAF,TF,CFin,CFid", "CFst", "AF2"}) {
        const auto kinds = fault::parse_fault_kinds(kinds_text);
        for (const char* name : {"MATS++", "March C-"}) {
            const auto& test = march::find_march_test(name).test;
            const auto bit_dict = FaultDictionary::build(test, kinds);
            const auto word_dict =
                WordFaultDictionary::build(test, backgrounds, kinds, opts);

            EXPECT_EQ(word_dict.instance_count(), bit_dict.instance_count())
                << name << ' ' << kinds_text;
            EXPECT_EQ(word_dict.detected_count(), bit_dict.detected_count())
                << name << ' ' << kinds_text;
            EXPECT_EQ(word_dict.distinguished_count(),
                      bit_dict.distinguished_count())
                << name << ' ' << kinds_text;
            EXPECT_DOUBLE_EQ(word_dict.resolution(), bit_dict.resolution())
                << name << ' ' << kinds_text;
            ASSERT_EQ(word_dict.entries().size(), bit_dict.entries().size())
                << name << ' ' << kinds_text;
            // Bucket-for-bucket: every bit bucket maps to a word bucket
            // holding exactly the same instances.
            for (const DictionaryEntry& entry : bit_dict.entries())
                EXPECT_EQ(word_dict.diagnose(lifted(entry.signature)),
                          entry.instances)
                    << name << ' ' << kinds_text << " bucket "
                    << entry.signature.str();
        }
    }
}

TEST(WordDictionary, EscapesLandInTheEscapeBucket) {
    // MATS misses TF<v>: its instance must map to the empty signature —
    // in the word path exactly as in the bit path.
    const auto kinds = fault::parse_fault_kinds("SAF,TF<v>");
    const auto dict = WordFaultDictionary::build(
        march::mats(), word::solid_background(1), kinds,
        bit_equivalent_opts());
    EXPECT_EQ(dict.detected_count(), 2);  // SAF0, SAF1
    EXPECT_FALSE(WordSignature{}.detected());
    const auto escapes = dict.diagnose(WordSignature{});
    ASSERT_EQ(escapes.size(), 1u);
    EXPECT_EQ(escapes[0].kind, FaultKind::TfDown);
}

TEST(WordDictionary, IdenticalSignaturesShareABucket) {
    // The two roles of a decoder-map fault are behaviourally equivalent,
    // so they must collapse into one ambiguity class.
    const auto dict = WordFaultDictionary::build(
        march::march_c_minus(), word::solid_background(1),
        fault::parse_fault_kinds("AF2"), bit_equivalent_opts());
    EXPECT_EQ(dict.instance_count(), 2);
    EXPECT_EQ(dict.detected_count(), 2);
    EXPECT_EQ(dict.distinguished_count(), 0);
    ASSERT_EQ(dict.entries().size(), 1u);
    EXPECT_EQ(dict.entries().front().instances.size(), 2u);
}

TEST(WordDictionary, SingleInstanceClassesAreDistinguished) {
    // Address-aware word observations separate the two roles of an
    // idempotent coupling fault (same sites, different victim words).
    const auto dict = WordFaultDictionary::build(
        march::march_c_minus(), word::solid_background(1),
        fault::parse_fault_kinds("CFid<^,0>"), bit_equivalent_opts());
    EXPECT_EQ(dict.detected_count(), 2);
    EXPECT_EQ(dict.distinguished_count(), 2);
    EXPECT_DOUBLE_EQ(dict.resolution(), 1.0);
}

/// The hash-bucket lookup must agree with the original linear bucket scan
/// on every known signature, the escape bucket, and unknown signatures.
TEST(WordDictionary, HashDiagnoseMatchesLinearScan) {
    word::WordRunOptions opts;  // 8 words × 8 bits
    const auto dict = WordFaultDictionary::build(
        march::march_c_minus(), word::counting_backgrounds(opts.width),
        fault::parse_fault_kinds("SAF,TF,CFin,CFid"), opts);
    for (const auto& entry : dict.entries())
        EXPECT_EQ(dict.diagnose(entry.signature),
                  dict.diagnose_linear(entry.signature))
            << entry.signature.str();
    const WordSignature escape;
    EXPECT_EQ(dict.diagnose(escape), dict.diagnose_linear(escape));
    const WordSignature unknown{{{0, {0, 99}, 7, 1}}};
    EXPECT_EQ(dict.diagnose(unknown), dict.diagnose_linear(unknown));
    EXPECT_TRUE(dict.diagnose(unknown).empty());
}

TEST(WordDictionary, WidthEightCountingBackgrounds) {
    // The genuinely word-oriented regime: 8×8 memory, counting
    // backgrounds. Every instance must be accounted for, diagnose must
    // round-trip every bucket, and the scalar-oracle signature of a
    // placed instance must equal the bucket the packed build put it in.
    word::WordRunOptions opts;  // 8 words × 8 bits
    const auto backgrounds = word::counting_backgrounds(opts.width);
    const auto kinds = fault::parse_fault_kinds("SAF,TF,CFin,CFid");
    const auto& test = march::march_c_minus();
    const auto dict =
        WordFaultDictionary::build(test, backgrounds, kinds, opts);

    const auto instances = fault::instantiate(kinds);
    EXPECT_EQ(dict.instance_count(),
              static_cast<int>(instances.size()));
    int total = 0;
    for (const auto& entry : dict.entries())
        total += static_cast<int>(entry.instances.size());
    EXPECT_EQ(total, dict.instance_count());
    EXPECT_GE(dict.resolution(), 0.0);
    EXPECT_LE(dict.resolution(), 1.0);
    for (const auto& entry : dict.entries())
        EXPECT_EQ(dict.diagnose(entry.signature), entry.instances);

    // Packed build vs scalar oracle, instance by instance.
    for (const fault::FaultInstance& inst : instances) {
        const auto sig = word_signature_of(
            test, backgrounds, word::place_instance(inst, opts), opts);
        const auto bucket = dict.diagnose(sig);
        EXPECT_NE(std::find(bucket.begin(), bucket.end(), inst),
                  bucket.end())
            << inst.name() << " not in its own bucket " << sig.str();
    }
}

TEST(WordDictionary, MoreBackgroundsNeverHurtResolution) {
    // The word-path analogue of "more reads never hurt": the counting
    // set observes strictly more than the solid background alone.
    word::WordRunOptions opts;
    const auto kinds = fault::parse_fault_kinds("SAF,TF,CFid");
    const auto& test = march::march_c_minus();
    const auto coarse = WordFaultDictionary::build(
        test, word::solid_background(opts.width), kinds, opts);
    const auto fine = WordFaultDictionary::build(
        test, word::counting_backgrounds(opts.width), kinds, opts);
    EXPECT_GE(fine.detected_count(), coarse.detected_count());
    EXPECT_GE(fine.distinguished_count(), coarse.distinguished_count());
}

TEST(WordSignatureRendering, PrintsObservationsAndEscape) {
    EXPECT_EQ(WordSignature{}.str(), "(escape)");
    WordSignature sig;
    sig.failing.push_back({0, {1, 0}, 2, 0b101});
    sig.failing.push_back({2, {4, 2}, 5, 0b1});
    EXPECT_TRUE(sig.detected());
    EXPECT_EQ(sig.str(), "B0.E1.0@w2#5 B2.E4.2@w5#1");
}

TEST(WordPlaceInstance, MirrorsBitPlacement) {
    const auto opts = bit_equivalent_opts();
    const auto instances =
        fault::instantiate(fault::parse_fault_kinds("SAF,CFid<^,0>"));
    for (const fault::FaultInstance& inst : instances) {
        const auto bit = sim::place_instance(inst, opts.words);
        const auto word = word::place_instance(inst, opts);
        EXPECT_EQ(word.a.word, bit.cell_a) << inst.name();
        EXPECT_EQ(word.a.bit, 0) << inst.name();
        if (fault::is_two_cell(inst.kind)) {
            EXPECT_EQ(word.b.word, bit.cell_b) << inst.name();
            EXPECT_EQ(word.b.bit, 0) << inst.name();
        }
    }
}

}  // namespace
}  // namespace mtg::diagnosis
