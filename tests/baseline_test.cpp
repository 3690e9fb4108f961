#include <gtest/gtest.h>

#include "baseline/exhaustive.hpp"
#include "core/generator.hpp"
#include "engine/engine.hpp"
#include "sim/march_runner.hpp"

namespace mtg::baseline {
namespace {

using fault::FaultKind;

TEST(Exhaustive, FindsFourNTestForSaf) {
    ExhaustiveOptions options;
    options.max_complexity = 4;
    const ExhaustiveResult result =
        exhaustive_search(fault::parse_fault_kinds("SAF"), options);
    ASSERT_TRUE(result.test.has_value());
    EXPECT_EQ(result.test->complexity(), 4);
    EXPECT_TRUE(sim::is_well_formed(*result.test));
    const engine::Engine& engine = engine::Engine::global();
    EXPECT_TRUE(engine.covers_everywhere(*result.test, FaultKind::Saf0));
    EXPECT_TRUE(engine.covers_everywhere(*result.test, FaultKind::Saf1));
}

/// Optimality certificate for Table 3 row 1: no March test of complexity
/// <= 3 covers SAF (so the generator's 4n is optimal).
TEST(Exhaustive, NoThreeOpMarchCoversSaf) {
    ExhaustiveOptions options;
    options.max_complexity = 3;
    const ExhaustiveResult result =
        exhaustive_search(fault::parse_fault_kinds("SAF"), options);
    EXPECT_FALSE(result.test.has_value());
    EXPECT_FALSE(result.budget_exhausted);
}

/// Optimality certificate for Table 3 row 2: SAF+TF needs 5n.
TEST(Exhaustive, NoFourOpMarchCoversSafTf) {
    ExhaustiveOptions options;
    options.max_complexity = 4;
    const ExhaustiveResult result =
        exhaustive_search(fault::parse_fault_kinds("SAF,TF"), options);
    EXPECT_FALSE(result.test.has_value());
    EXPECT_FALSE(result.budget_exhausted);
}

/// Optimality certificate for Table 3 row 6: no 4-op March test covers
/// inversion coupling in both directions and both address orders, so the
/// paper's (and our generator's) 5n CFin test is optimal. The exhaustive
/// search also confirms a 5-op solution exists.
TEST(Exhaustive, CfinOptimumIsFiveOps) {
    ExhaustiveOptions options;
    options.max_complexity = 5;
    const ExhaustiveResult result =
        exhaustive_search(fault::parse_fault_kinds("CFin"), options);
    ASSERT_TRUE(result.test.has_value());
    EXPECT_EQ(result.test->complexity(), 5) << result.test->str();
}

/// The generator's result equals the exhaustive optimum where the latter
/// is feasible to compute — the central optimality cross-check.
TEST(Exhaustive, GeneratorMatchesExhaustiveOptimum) {
    for (const char* list : {"SAF", "SAF,TF", "CFin<^>"}) {
        const auto kinds = fault::parse_fault_kinds(list);
        core::Generator generator;
        const auto generated = generator.generate(kinds);
        ASSERT_TRUE(generated.valid) << list;

        ExhaustiveOptions options;
        options.max_complexity = generated.complexity;
        const ExhaustiveResult exhaustive = exhaustive_search(kinds, options);
        ASSERT_TRUE(exhaustive.test.has_value())
            << list << ": exhaustive found nothing up to "
            << generated.complexity;
        EXPECT_EQ(exhaustive.test->complexity(), generated.complexity)
            << list << ": generator " << generated.summary()
            << " vs exhaustive " << exhaustive.test->str();
    }
}

TEST(Exhaustive, BudgetCapIsHonoured) {
    ExhaustiveOptions options;
    options.max_complexity = 10;
    options.max_nodes = 1000;
    const ExhaustiveResult result =
        exhaustive_search(fault::parse_fault_kinds("CFid"), options);
    EXPECT_TRUE(result.budget_exhausted);
    EXPECT_LE(result.nodes_explored, 1100);
}

/// The §2 argument: the candidate space grows exponentially with the
/// complexity bound.
TEST(Exhaustive, CandidateCountGrowsExponentially) {
    const long long c3 = count_candidates(3);
    const long long c4 = count_candidates(4);
    const long long c5 = count_candidates(5);
    EXPECT_GT(c4, 2 * c3);
    EXPECT_GT(c5, 2 * c4);
}

}  // namespace
}  // namespace mtg::baseline
