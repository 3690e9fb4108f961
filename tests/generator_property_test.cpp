#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "engine/engine.hpp"
#include "march/library.hpp"
#include "sim/march_runner.hpp"
#include "util/rng.hpp"

namespace mtg::core {
namespace {

using fault::FaultKind;

/// Random fault subset, deterministic per seed. Always non-empty.
std::vector<FaultKind> random_subset(std::uint64_t seed) {
    SplitMix64 rng(seed);
    const auto& all = fault::all_fault_kinds();
    std::vector<FaultKind> subset;
    while (subset.empty()) {
        for (FaultKind k : all)
            if (rng.below(100) < 22) subset.push_back(k);
    }
    return subset;
}

class RandomListProperty : public ::testing::TestWithParam<int> {};

/// The central generator invariant, swept over random fault lists: the
/// result is always well-formed, complete (simulator-verified at every
/// placement and sweep order) and operation-minimal under the march-level
/// deletion check.
TEST_P(RandomListProperty, GeneratedTestIsSoundAndComplete) {
    const auto kinds = random_subset(static_cast<std::uint64_t>(GetParam()));
    std::string label;
    for (FaultKind k : kinds) label += fault::fault_kind_name(k) + " ";

    Generator generator;
    const GenerationResult result = generator.generate(kinds);
    ASSERT_TRUE(result.valid) << label << "-> " << result.summary();
    EXPECT_TRUE(sim::is_well_formed(result.test)) << label;
    EXPECT_TRUE(engine::Engine::global().covers_all(result.test, kinds))
        << label << "-> " << result.summary();
    // Completeness per the §6 coverage matrix too.
    EXPECT_TRUE(result.redundancy.complete) << label;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomListProperty, ::testing::Range(1, 21));

class MonotonicityProperty : public ::testing::TestWithParam<int> {};

/// Adding fault models never reduces the generated complexity: a superset
/// list yields a test at least as long as each of its parts.
TEST_P(MonotonicityProperty, SupersetNeverCheaper) {
    SplitMix64 rng(1000u + static_cast<std::uint64_t>(GetParam()));
    const auto& all = fault::all_fault_kinds();
    std::vector<FaultKind> small, large;
    for (FaultKind k : all) {
        const bool in_small = rng.below(100) < 12;
        const bool in_large = in_small || rng.below(100) < 12;
        if (in_small) small.push_back(k);
        if (in_large) large.push_back(k);
    }
    if (small.empty() || large.size() == small.size()) GTEST_SKIP();

    Generator generator;
    const auto small_result = generator.generate(small);
    const auto large_result = generator.generate(large);
    ASSERT_TRUE(small_result.valid);
    ASSERT_TRUE(large_result.valid);
    EXPECT_GE(large_result.complexity, small_result.complexity);
    // And the superset's test covers the subset list as well.
    EXPECT_TRUE(engine::Engine::global().covers_all(large_result.test, small));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MonotonicityProperty, ::testing::Range(1, 11));

/// Generated tests never exceed the classical catch-all March SS (22n) and
/// never beat the information-theoretic floor of 2 ops (one write + one
/// read).
TEST(GeneratorBounds, ComplexityStaysInSaneRange) {
    Generator generator;
    for (int seed = 50; seed < 60; ++seed) {
        const auto kinds = random_subset(static_cast<std::uint64_t>(seed));
        const auto result = generator.generate(kinds);
        ASSERT_TRUE(result.valid);
        EXPECT_GE(result.complexity, 2);
        EXPECT_LE(result.complexity, march::march_ss().complexity());
    }
}

/// The generator's output never loses to the corresponding known March
/// test on the fault lists where the literature has a dedicated answer.
TEST(GeneratorVsLibrary, NeverWorseThanTheKnownEquivalent) {
    struct Case {
        const char* list;
        const char* known;
    };
    const Case cases[] = {
        {"SAF", "MATS"},
        {"SAF,ADF", "MATS+"},
        {"SAF,TF,ADF", "MATS++"},
        {"SAF,TF,ADF,CFin", "March X"},
        {"SAF,TF,ADF,CFin,CFid", "March C-"},
        {"SAF,TF,ADF,CFin,CFid,CFst", "March C-"},
    };
    Generator generator;
    for (const Case& c : cases) {
        const auto result = generator.generate_for(c.list);
        ASSERT_TRUE(result.valid) << c.list;
        EXPECT_LE(result.complexity,
                  march::find_march_test(c.known).test.complexity())
            << c.list << " vs " << c.known;
    }
}

}  // namespace
}  // namespace mtg::core
