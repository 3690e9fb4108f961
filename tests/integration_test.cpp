#include <gtest/gtest.h>

#include "core/generator.hpp"
#include "diagnosis/dictionary.hpp"
#include "engine/engine.hpp"
#include "march/library.hpp"
#include "setcover/coverage_matrix.hpp"
#include "word/word_march.hpp"

namespace mtg {
namespace {

using fault::FaultKind;

/// Cross-module pipeline: generate bit-oriented, lift to word-oriented
/// with counting backgrounds, verify coverage including intra-word pairs.
TEST(Integration, GeneratedTestsLiftToWords) {
    core::Generator generator;
    for (const char* list : {"SAF,TF", "CFid", "SAF,TF,ADF,CFin,CFid"}) {
        const auto result = generator.generate_for(list);
        ASSERT_TRUE(result.valid) << list;

        const auto backgrounds = word::counting_backgrounds(4);
        word::WordRunOptions opts;
        opts.width = 4;
        EXPECT_TRUE(word::is_well_formed(result.test, backgrounds, opts))
            << list;
        for (FaultKind kind : fault::parse_fault_kinds(list)) {
            EXPECT_TRUE(engine::Engine::global().covers_everywhere(
                result.test, backgrounds, kind, opts))
                << list << " / " << fault::fault_kind_name(kind);
        }
    }
}

/// Generated tests feed straight into the diagnosis machinery: every
/// targeted instance gets a non-empty signature.
TEST(Integration, GeneratedTestsAreDiagnosable) {
    core::Generator generator;
    const auto kinds = fault::parse_fault_kinds("SAF,TF,CFin,CFid");
    const auto result = generator.generate(kinds);
    ASSERT_TRUE(result.valid);
    const auto dict = diagnosis::FaultDictionary::build(result.test, kinds);
    EXPECT_EQ(dict.detected_count(), dict.instance_count());
    // The minimal test cannot out-resolve the longer classical March C-.
    const auto reference =
        diagnosis::FaultDictionary::build(march::march_c_minus(), kinds);
    EXPECT_GT(dict.detected_count(), 0);
    EXPECT_GE(reference.detected_count(), dict.detected_count());
}

/// The §6 analysis agrees with the simulator on every generated result:
/// completeness per coverage matrix implies no escape in the Engine's
/// coverage verdict and vice versa.
TEST(Integration, RedundancyAnalysisConsistentWithSimulator) {
    core::Generator generator;
    for (const char* list : {"SAF", "SAF,TF,ADF", "CFst"}) {
        const auto kinds = fault::parse_fault_kinds(list);
        const auto result = generator.generate(kinds);
        ASSERT_TRUE(result.valid) << list;
        EXPECT_TRUE(result.redundancy.complete) << list;
        EXPECT_TRUE(engine::Engine::global().covers_all(result.test, kinds))
            << list;
    }
}

/// End-to-end determinism across the whole pipeline, including diagnosis
/// artifacts.
TEST(Integration, FullPipelineDeterministic) {
    core::Generator generator;
    const auto kinds = fault::parse_fault_kinds("SAF,TF,CFin");
    const auto a = generator.generate(kinds);
    const auto b = generator.generate(kinds);
    EXPECT_EQ(a.test, b.test);
    const auto da = diagnosis::FaultDictionary::build(a.test, kinds);
    const auto db = diagnosis::FaultDictionary::build(b.test, kinds);
    EXPECT_EQ(da.str(), db.str());
}

/// Library baseline sanity at a different memory size: coverage verdicts
/// are stable for n in {4, 8, 12} (the theory is size-independent for
/// n >= 3).
TEST(Integration, CoverageVerdictsStableAcrossMemorySizes) {
    const engine::Engine& engine = engine::Engine::global();
    for (int n : {4, 8, 12}) {
        sim::RunOptions opts;
        opts.memory_size = n;
        EXPECT_TRUE(engine.covers_everywhere(march::march_c_minus(),
                                             FaultKind::CfidDown1, opts))
            << n;
        EXPECT_FALSE(
            engine.covers_everywhere(march::mats(), FaultKind::CfidUp0, opts))
            << n;
    }
}

}  // namespace
}  // namespace mtg
