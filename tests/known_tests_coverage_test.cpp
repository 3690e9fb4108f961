#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"

namespace mtg {
namespace {

using fault::FaultKind;
using march::MarchTest;

/// Classical coverage claims from van de Goor's survey, reproduced on our
/// fault simulator. These are the ground-truth anchors for the whole
/// reproduction: if the simulator disagreed with 30 years of literature,
/// everything downstream would be suspect.
struct CoverageCase {
    const char* test_name;
    const char* covered;      // fault families the test must fully cover
    const char* not_covered;  // families with at least one escape
};

class KnownCoverage : public ::testing::TestWithParam<CoverageCase> {};

TEST_P(KnownCoverage, MatchesLiterature) {
    const CoverageCase& param = GetParam();
    const MarchTest& test = march::find_march_test(param.test_name).test;
    const engine::Engine& engine = engine::Engine::global();

    for (FaultKind kind : fault::parse_fault_kinds(param.covered)) {
        EXPECT_TRUE(engine.covers_everywhere(test, kind))
            << param.test_name << " should cover " << fault::fault_kind_name(kind);
    }
    if (std::string(param.not_covered).empty()) return;
    for (FaultKind kind : fault::parse_fault_kinds(param.not_covered)) {
        EXPECT_FALSE(engine.covers_everywhere(test, kind))
            << param.test_name << " should NOT fully cover "
            << fault::fault_kind_name(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Literature, KnownCoverage,
    ::testing::Values(
        // SCAN: stuck-at only; misses TF (no read after both transitions
        // in-place? SCAN = w0,r0,w1,r1 actually covers TF<^>... it misses
        // TF<v>: the final w0 is never read back).
        CoverageCase{"SCAN", "SAF", "TF<v>,CFid<^,0>"},
        // MATS: SAF; misses down-transition faults, falling-inversion
        // coupling (its only falling write is never observed) and decoder
        // faults. Rising inversions are caught by its r0/r1 pairs.
        CoverageCase{"MATS", "SAF,CFin<^>", "TF<v>,CFin<v>,AF"},
        // MATS+: SAF + AF (the decoder-fault baseline of Table 3 row 2).
        CoverageCase{"MATS+", "SAF,AF", "TF<v>"},
        // MATS++: SAF + TF + AF (Table 3 row 3 equivalent).
        CoverageCase{"MATS++", "SAF,TF,AF", "CFid<^,0>"},
        // March X: adds inversion coupling (Table 3 row 4 equivalent).
        CoverageCase{"March X", "SAF,TF,AF,CFin", "CFid<v,1>"},
        // March Y: March X plus linked TF; still no idempotent CFs.
        CoverageCase{"March Y", "SAF,TF,AF,CFin", "CFid<v,0>"},
        // March C-: the Table 3 row 5 equivalent — everything unlinked.
        CoverageCase{"March C-", "SAF,TF,AF,CFin,CFid,CFst", ""},
        // March C: same coverage as March C- (with a redundant element).
        CoverageCase{"March C", "SAF,TF,AF,CFin,CFid,CFst", ""},
        // March A / March B: complete for the unlinked static set too.
        CoverageCase{"March A", "SAF,TF,AF,CFin,CFid", ""},
        CoverageCase{"March B", "SAF,TF,AF,CFin,CFid", ""},
        // March U: complete unlinked coverage.
        CoverageCase{"March U", "SAF,TF,AF,CFin,CFid", ""},
        // March SS covers the simple static faults including disturbs.
        CoverageCase{"March SS", "SAF,TF,AF,CFin,CFid,CFst,WDF,IRF", ""},
        // PMOVI detects the March C- set except CFid<v,1> with a lower
        // aggressor: its last falling write corrupts an already-swept
        // victim and, unlike March C-, no trailing read element remains.
        CoverageCase{"PMOVI", "SAF,TF,AF,CFin,CFid<^,0>,CFid<^,1>,CFid<v,0>",
                     "CFid<v,1>"}),
    [](const ::testing::TestParamInfo<CoverageCase>& info) {
        std::string name = info.param.test_name;
        for (char& c : name)
            if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
        return name;
    });

/// Read-disturb coverage needs back-to-back reads: March SR has them,
/// March C- does not (DRDF escapes March C-; RDF is caught by any read).
TEST(KnownCoverageExtras, ReadDisturbs) {
    const engine::Engine& engine = engine::Engine::global();
    EXPECT_TRUE(engine.covers_everywhere(
        march::find_march_test("March SR").test, FaultKind::Rdf0));
    EXPECT_TRUE(
        engine.covers_everywhere(march::march_c_minus(), FaultKind::Rdf0));
    EXPECT_TRUE(
        engine.covers_everywhere(march::march_c_minus(), FaultKind::Rdf1));
    EXPECT_FALSE(
        engine.covers_everywhere(march::march_c_minus(), FaultKind::Drdf0));
    EXPECT_TRUE(engine.covers_everywhere(march::march_ss(), FaultKind::Drdf0));
    EXPECT_TRUE(engine.covers_everywhere(march::march_ss(), FaultKind::Drdf1));
}

/// Data-retention faults need an explicit delay element.
TEST(KnownCoverageExtras, RetentionNeedsDelay) {
    const engine::Engine& engine = engine::Engine::global();
    EXPECT_FALSE(engine.covers_everywhere(march::mats_plus(), FaultKind::Drf0));
    const auto& with_delay = march::find_march_test("MATS+Del").test;
    EXPECT_TRUE(engine.covers_everywhere(with_delay, FaultKind::Drf0));
    EXPECT_TRUE(engine.covers_everywhere(with_delay, FaultKind::Drf1));
}

/// Write disturbs require a non-transition write followed by a read.
TEST(KnownCoverageExtras, WriteDisturbs) {
    const engine::Engine& engine = engine::Engine::global();
    EXPECT_FALSE(engine.covers_everywhere(march::mats(), FaultKind::Wdf0));
    EXPECT_TRUE(engine.covers_everywhere(march::march_ss(), FaultKind::Wdf0));
    EXPECT_TRUE(engine.covers_everywhere(march::march_ss(), FaultKind::Wdf1));
}

}  // namespace
}  // namespace mtg
