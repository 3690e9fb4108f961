#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "diagnosis/dictionary.hpp"
#include "engine/engine.hpp"
#include "march/library.hpp"
#include "march/parser.hpp"
#include "word/background.hpp"

namespace mtg::diagnosis {
namespace {

using fault::FaultKind;

TEST(Signature, PrintsSitesAndEscape) {
    Signature escape;
    EXPECT_FALSE(escape.detected());
    EXPECT_EQ(escape.str(), "(escape)");

    Signature word_sig;
    word_sig.failing.push_back({0, {1, 0}, 2, 0b101});
    word_sig.failing.push_back({2, {4, 2}, 5, 0b1});
    EXPECT_TRUE(word_sig.detected());
    EXPECT_EQ(word_sig.str(), "B0.E1.0@w2#5 B2.E4.2@w5#1");

    // A bit build prints cell form: one background, bit 0 of word c is
    // cell c. A word build prints Signature::str().
    const Signature bit_sig{{{0, {1, 0}, 2, 1}, {0, {4, 2}, 5, 1}}};
    const auto kinds = fault::parse_fault_kinds("SAF");
    const auto bit_dict = FaultDictionary::build(march::mats(), kinds);
    EXPECT_EQ(bit_dict.render(bit_sig), "E1.0@c2 E4.2@c5");
    EXPECT_EQ(bit_dict.render(escape), "(escape)");
    const auto word_dict = FaultDictionary::build(
        march::mats(), word::solid_background(1), kinds,
        word::bit_view(sim::RunOptions{}));
    EXPECT_EQ(word_dict.render(bit_sig), "B0.E1.0@w2#1 B0.E4.2@w5#1");
}

TEST(Signature, OfConcreteFault) {
    const auto test = march::parse_march("{~(w0); ~(r0); ~(w1); ~(r1)}");
    const Signature sig = signature_of(
        test, sim::InjectedFault::single(FaultKind::Saf1, 3));
    // SAF1 fails the r0 of element 1 at its own address only.
    ASSERT_EQ(sig.failing.size(), 1u);
    EXPECT_EQ(sig.failing[0], (word::WordObservation{0, {1, 0}, 3, 1}));
}

TEST(Dictionary, AccountsForEveryInstance) {
    const auto kinds = fault::parse_fault_kinds("SAF,TF");
    const auto dict = FaultDictionary::build(march::mats_plus_plus(), kinds);
    EXPECT_EQ(dict.instance_count(), 4);
    EXPECT_EQ(dict.detected_count(), 4);  // MATS++ covers SAF+TF
    int total = 0;
    for (const auto& entry : dict.entries())
        total += static_cast<int>(entry.instances.size());
    EXPECT_EQ(total, dict.instance_count());
}

TEST(Dictionary, EscapesLandInTheEscapeBucket) {
    // MATS misses TF<v>: its instance must map to the empty signature.
    const auto kinds = fault::parse_fault_kinds("SAF,TF<v>");
    const auto dict = FaultDictionary::build(march::mats(), kinds);
    EXPECT_EQ(dict.detected_count(), 2);  // SAF0, SAF1
    EXPECT_FALSE(Signature{}.detected());
    const auto escapes = dict.diagnose(Signature{});
    ASSERT_EQ(escapes.size(), 1u);
    EXPECT_EQ(escapes[0].kind, FaultKind::TfDown);
}

TEST(Dictionary, DiagnoseReturnsCompatibleInstances) {
    const auto kinds = fault::parse_fault_kinds("SAF");
    const auto dict = FaultDictionary::build(march::march_c_minus(), kinds);
    for (const auto& entry : dict.entries()) {
        EXPECT_EQ(dict.diagnose(entry.signature), entry.instances);
    }
    // Unknown signature -> no candidates.
    EXPECT_TRUE(dict.diagnose(Signature{{{0, {0, 99}, 0, 1}}}).empty());
}

/// The hash-bucket lookup must agree with the original linear bucket scan
/// on every known signature, the escape bucket, and unknown signatures.
TEST(Dictionary, HashDiagnoseMatchesLinearScan) {
    const auto kinds = fault::parse_fault_kinds("SAF,TF,CFin,CFid");
    for (const char* name : {"MATS++", "March C-"}) {
        const auto dict =
            FaultDictionary::build(march::find_march_test(name).test, kinds);
        for (const auto& entry : dict.entries())
            EXPECT_EQ(dict.diagnose(entry.signature),
                      dict.diagnose_linear(entry.signature))
                << name << ' ' << entry.signature.str();
        const Signature escape;
        EXPECT_EQ(dict.diagnose(escape), dict.diagnose_linear(escape));
        const Signature unknown{{{0, {0, 99}, 7, 1}}};
        EXPECT_EQ(dict.diagnose(unknown), dict.diagnose_linear(unknown));
        EXPECT_TRUE(dict.diagnose(unknown).empty());
    }
}

TEST(Dictionary, ResolutionBounds) {
    const auto kinds = fault::parse_fault_kinds("SAF,TF,CFin,CFid");
    for (const char* name : {"MATS++", "March C-", "PMOVI", "March SS"}) {
        const auto dict =
            FaultDictionary::build(march::find_march_test(name).test, kinds);
        EXPECT_GE(dict.resolution(), 0.0) << name;
        EXPECT_LE(dict.resolution(), 1.0) << name;
        EXPECT_LE(dict.distinguished_count(), dict.detected_count()) << name;
    }
}

/// The classic diagnosis claim [6]: tests with more observation points
/// distinguish more faults. March SS (9 reads) must resolve at least as
/// well as MATS++ (3 reads) on the static fault set it covers.
TEST(Dictionary, MoreReadsNeverHurtResolution) {
    const auto kinds = fault::parse_fault_kinds("SAF,TF");
    const auto coarse = FaultDictionary::build(march::mats_plus_plus(), kinds);
    const auto fine = FaultDictionary::build(march::march_ss(), kinds);
    EXPECT_GE(fine.distinguished_count(), coarse.distinguished_count());
}

TEST(Dictionary, RenderingListsEveryEntry) {
    const auto kinds = fault::parse_fault_kinds("SAF");
    const auto dict = FaultDictionary::build(march::mats(), kinds);
    const std::string text = dict.str();
    EXPECT_NE(text.find("SAF0@i"), std::string::npos);
    EXPECT_NE(text.find("SAF1@i"), std::string::npos);

    // The table `march_tool diagnose "March C-" SAF,TF,ADF,CFin,CFid`
    // prints: cell-form signatures, buckets in rendered-signature order.
    EXPECT_EQ(FaultDictionary::build(
                  march::march_c_minus(),
                  fault::parse_fault_kinds("SAF,TF,ADF,CFin,CFid"))
                  .str(),
              "E1.0@c2 E3.0@c2 E5.0@c2 -> SAF1@i\n"
              "E1.0@c5 -> CFid<^,1>@i>j\n"
              "E1.0@c5 E2.0@c5 -> AF@i>j\n"
              "E1.0@c5 E4.0@c5 -> CFin<^>@i>j\n"
              "E2.0@c2 -> CFid<^,0>@j>i\n"
              "E2.0@c2 E3.0@c2 -> CFin<^>@j>i\n"
              "E2.0@c2 E4.0@c2 -> SAF0@i, TF<^>@i\n"
              "E2.0@c5 -> CFid<v,0>@i>j\n"
              "E2.0@c5 E5.0@c5 -> CFin<v>@i>j\n"
              "E3.0@c2 -> CFid<^,1>@j>i, CFid<v,1>@j>i\n"
              "E3.0@c2 E4.0@c2 -> AF@j>i, CFin<v>@j>i\n"
              "E3.0@c2 E5.0@c2 -> TF<v>@i\n"
              "E4.0@c2 -> CFid<v,0>@j>i\n"
              "E4.0@c5 -> CFid<^,0>@i>j\n"
              "E5.0@c5 -> CFid<v,1>@i>j\n");
}

/// AF2 integration: decoder-map faults are detected, and the two roles are
/// *behaviourally equivalent* — both alias the same address pair, and
/// which physical cell backs the pair is unobservable — so they must land
/// in the same dictionary bucket rather than being distinguished.
TEST(Dictionary, Af2RolesAreEquivalentUnderOutputTracing) {
    const auto kinds = fault::parse_fault_kinds("AF2");
    const auto dict = FaultDictionary::build(march::march_c_minus(), kinds);
    EXPECT_EQ(dict.instance_count(), 2);
    EXPECT_EQ(dict.detected_count(), 2);
    EXPECT_EQ(dict.distinguished_count(), 0);
    ASSERT_EQ(dict.entries().size(), 1u);
    EXPECT_EQ(dict.entries().front().instances.size(), 2u);
}

/// Address-aware signatures separate faults that plain read-site traces
/// conflate: the two roles of an idempotent coupling fault fail the same
/// element reads but at different victim addresses.
TEST(Dictionary, AddressAwarenessSeparatesCouplingRoles) {
    const auto kinds = fault::parse_fault_kinds("CFid<^,0>");
    const auto dict = FaultDictionary::build(march::march_c_minus(), kinds);
    EXPECT_EQ(dict.detected_count(), 2);
    EXPECT_EQ(dict.distinguished_count(), 2);
    EXPECT_DOUBLE_EQ(dict.resolution(), 1.0);
}

/// The bit build against an oracle that shares none of its path: the
/// scalar bit backend (one SimMemory run per ⇕ expansion) traces each
/// placed instance, and those observations, written as width-1 word
/// observations, must diagnose to a bucket holding the instance.
TEST(Dictionary, ScalarBitOracleDiagnosesEveryInstance) {
    const sim::RunOptions opts;
    const engine::Engine scalar(
        engine::EngineConfig{.backend = engine::BackendKind::Scalar});
    for (const char* kinds_text :
         {"SAF,TF", "SAF,TF,CFin,CFid", "CFst", "AF2"}) {
        const auto kinds = fault::parse_fault_kinds(kinds_text);
        const auto instances = fault::instantiate(kinds);
        for (const char* name : {"MATS++", "March C-"}) {
            const auto& test = march::find_march_test(name).test;
            const auto dict = FaultDictionary::build(test, kinds, opts);
            EXPECT_EQ(dict.instance_count(),
                      static_cast<int>(instances.size()))
                << name << ' ' << kinds_text;
            for (const fault::FaultInstance& inst : instances) {
                const std::vector<sim::InjectedFault> placed{
                    sim::place_instance(inst, opts.memory_size)};
                const std::vector<sim::RunTrace> traces =
                    scalar.traces(test, placed, opts);
                Signature observed;
                for (const sim::Observation& obs :
                     traces.front().failing_observations)
                    observed.failing.push_back({0, obs.site, obs.cell, 1});
                const auto bucket = dict.diagnose(observed);
                EXPECT_NE(std::find(bucket.begin(), bucket.end(), inst),
                          bucket.end())
                    << name << ' ' << kinds_text << ": " << inst.name()
                    << " not in the bucket of " << dict.render(observed);
            }
        }
    }
}

}  // namespace
}  // namespace mtg::diagnosis
