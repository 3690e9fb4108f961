/// Word-build tests of the diagnosis dictionary: the genuinely
/// word-oriented regime (8 × 8 memory, counting backgrounds), where the
/// packed build must agree with the scalar word oracle instance by
/// instance, more backgrounds never hurt resolution, and the canonical
/// word placement mirrors the bit placement at width 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "diagnosis/dictionary.hpp"
#include "march/library.hpp"
#include "sim/march_runner.hpp"
#include "word/background.hpp"
#include "word/word_batch_runner.hpp"
#include "word/word_march.hpp"

namespace mtg::diagnosis {
namespace {

/// The hash-bucket lookup must agree with the original linear bucket scan
/// on every known signature, the escape bucket, and unknown signatures.
TEST(WordDictionary, HashDiagnoseMatchesLinearScan) {
    word::WordRunOptions opts;  // 8 words × 8 bits
    const auto dict = FaultDictionary::build(
        march::march_c_minus(), word::counting_backgrounds(opts.width),
        fault::parse_fault_kinds("SAF,TF,CFin,CFid"), opts);
    for (const auto& entry : dict.entries())
        EXPECT_EQ(dict.diagnose(entry.signature),
                  dict.diagnose_linear(entry.signature))
            << entry.signature.str();
    const Signature escape;
    EXPECT_EQ(dict.diagnose(escape), dict.diagnose_linear(escape));
    const Signature unknown{{{0, {0, 99}, 7, 1}}};
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
    const auto dict = FaultDictionary::build(test, backgrounds, kinds, opts);

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
        const auto sig = signature_of(
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
    const auto coarse = FaultDictionary::build(
        test, word::solid_background(opts.width), kinds, opts);
    const auto fine = FaultDictionary::build(
        test, word::counting_backgrounds(opts.width), kinds, opts);
    EXPECT_GE(fine.detected_count(), coarse.detected_count());
    EXPECT_GE(fine.distinguished_count(), coarse.distinguished_count());
}

TEST(WordPlaceInstance, MirrorsBitPlacement) {
    const auto opts = word::bit_view(sim::RunOptions{});
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
