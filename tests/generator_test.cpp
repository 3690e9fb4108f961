#include <gtest/gtest.h>

#include "core/generator.hpp"
#include "engine/engine.hpp"
#include "sim/march_runner.hpp"

namespace mtg::core {
namespace {

using fault::FaultKind;

TEST(Generator, RejectsEmptyList) {
    Generator generator;
    EXPECT_THROW((void)generator.generate({}), std::invalid_argument);
    EXPECT_THROW((void)generator.generate_for(""), std::invalid_argument);
}

TEST(Generator, SafOnlyIsFourN) {
    Generator generator;
    const GenerationResult result = generator.generate_for("SAF");
    EXPECT_TRUE(result.valid) << result.summary();
    EXPECT_EQ(result.complexity, 4) << result.summary();
    EXPECT_TRUE(result.redundancy.complete);
    EXPECT_TRUE(result.redundancy.non_redundant);
}

TEST(Generator, ResultIsSimulatorClean) {
    Generator generator;
    const GenerationResult result = generator.generate_for("SAF,TF");
    ASSERT_TRUE(result.valid);
    EXPECT_TRUE(sim::is_well_formed(result.test));
    for (FaultKind kind : fault::parse_fault_kinds("SAF,TF"))
        EXPECT_TRUE(
            engine::Engine::global().covers_everywhere(result.test, kind));
}

TEST(Generator, ArtifactsAreConsistent) {
    Generator generator;
    const GenerationResult result = generator.generate_for("SAF,TF");
    ASSERT_TRUE(result.valid);
    EXPECT_FALSE(result.chain.empty());
    EXPECT_FALSE(result.gts_raw.symbols.empty());
    EXPECT_FALSE(result.gts_reordered.symbols.empty());
    EXPECT_GE(result.gts_reordered.op_count(), result.gts_minimised.op_count());
    EXPECT_GE(result.test_unminimised.complexity(), result.complexity);
    EXPECT_GT(result.combinations_tried, 0);
    EXPECT_GT(result.seconds, 0.0);
    EXPECT_GT(result.atsp_stats.ap_solves, 0);
}

TEST(Generator, EachSingleFaultFamilyGeneratesValidTest) {
    Generator generator;
    for (const char* family :
         {"SAF", "TF", "WDF", "RDF", "DRDF", "IRF", "CFin", "CFid", "CFst",
          "ADF", "DRF"}) {
        const GenerationResult result = generator.generate_for(family);
        EXPECT_TRUE(result.valid) << family << ": " << result.summary();
        EXPECT_TRUE(result.redundancy.non_redundant)
            << family << ": " << result.summary();
    }
}

TEST(Generator, RetentionListEmitsDelay) {
    Generator generator;
    const GenerationResult result = generator.generate_for("SAF,DRF");
    ASSERT_TRUE(result.valid) << result.summary();
    EXPECT_TRUE(result.test.has_wait());
}

TEST(Generator, MixedStaticListIsValid) {
    Generator generator;
    const GenerationResult result = generator.generate_for("SAF,TF,CFst");
    EXPECT_TRUE(result.valid) << result.summary();
}

/// §5 enumeration actually reduces complexity: with a single combination
/// the CFin list cannot explore alternative sensitisations.
TEST(Generator, ClassEnumerationHelpsCfin) {
    GeneratorOptions one_combo;
    one_combo.max_class_combinations = 1;
    const GenerationResult limited = Generator(one_combo).generate_for("CFin");

    const GenerationResult full = Generator().generate_for("CFin");
    ASSERT_TRUE(full.valid);
    ASSERT_TRUE(limited.valid);
    EXPECT_LE(full.complexity, limited.complexity);
}

/// Generated tests must stay valid when regenerated (determinism).
TEST(Generator, Deterministic) {
    Generator generator;
    const auto a = generator.generate_for("SAF,TF,ADF");
    const auto b = generator.generate_for("SAF,TF,ADF");
    EXPECT_EQ(a.test, b.test);
    EXPECT_EQ(a.complexity, b.complexity);
}

/// Options plumbing: disabling the March-level minimisation keeps the raw
/// §4.3 output.
TEST(Generator, MinimisationToggle) {
    GeneratorOptions options;
    options.march_minimise = false;
    const GenerationResult raw = Generator(options).generate_for("SAF,TF");
    ASSERT_TRUE(raw.valid);
    EXPECT_EQ(raw.test, raw.test_unminimised);
}

TEST(Generator, UserDefinedSinglePrimitive) {
    // A user targeting one specific coupling primitive gets a small test.
    Generator generator;
    const GenerationResult result = generator.generate_for("CFid<^,0>");
    ASSERT_TRUE(result.valid) << result.summary();
    EXPECT_LE(result.complexity, 8);
    EXPECT_TRUE(engine::Engine::global().covers_everywhere(
        result.test, FaultKind::CfidUp0));
}

}  // namespace
}  // namespace mtg::core
