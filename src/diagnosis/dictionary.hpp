#pragma once

/// \file dictionary.hpp
/// Fault diagnosis by output tracing, after the paper's reference [6]
/// (Niggemeyer, Redeker, Rudnick — "Diagnostic Testing of Embedded
/// Memories based on Output Tracing"): the *signature* of a fault under a
/// March test is the set of read operations that observe it. A fault
/// dictionary maps signatures to fault instances; its *resolution* measures
/// how many instances the test distinguishes — the diagnostic quality
/// metric that separates e.g. PMOVI from March C-.
///
/// One dictionary serves both fault universes. A word test (bit test ×
/// background set) observes a bit fault as (background, read site, word
/// address, failing bit mask) entries; a bit test on n cells is the word
/// test on n words of width 1 under the solid background, cell c being
/// (word c, bit 0). Signatures are built by one engine dictionary sweep
/// over the canonically placed instance population; signature_of runs the
/// scalar word::guaranteed_trace oracle on one placed fault.

#include <string>
#include <unordered_map>
#include <vector>

#include "fault/instance.hpp"
#include "march/march_test.hpp"
#include "sim/march_runner.hpp"
#include "word/word_trace.hpp"

namespace mtg::diagnosis {

/// Output trace of one fault under one test: the guaranteed failing word
/// observations (stable across ⇕ expansions), in the canonical word-trace
/// order (background, textual site, ascending word). Address-awareness is
/// what lets the dictionary separate faults that fail the same reads at
/// different cells (e.g. the two roles of an idempotent coupling fault).
struct Signature {
    std::vector<word::WordObservation> failing;

    [[nodiscard]] bool detected() const { return !failing.empty(); }

    /// "B0.E1.0@w2#5 B1.E4.2@w3#1" style rendering (bit masks in hex).
    /// An injective encoding of the observation list: the dictionary keys
    /// and sorts its buckets by it.
    [[nodiscard]] std::string str() const;

    friend bool operator==(const Signature&, const Signature&) = default;
};

/// Signature of a concrete injected bit fault under a word test, via the
/// scalar oracle.
[[nodiscard]] Signature signature_of(
    const march::MarchTest& test,
    const std::vector<word::Background>& backgrounds,
    const word::InjectedBitFault& fault,
    const word::WordRunOptions& opts = {});

/// Signature of a concrete injected fault under a bit test: the word
/// overload at width 1 under the solid background.
[[nodiscard]] Signature signature_of(const march::MarchTest& test,
                                     const sim::InjectedFault& fault,
                                     const sim::RunOptions& opts = {});

/// One dictionary bucket: all instances sharing a signature.
struct DictionaryEntry {
    Signature signature;
    std::vector<fault::FaultInstance> instances;
};

/// The fault dictionary of a test over a fault list. Instances are placed
/// at the canonical positions of word::place_instance — for a bit test,
/// the cells of sim::place_instance used by the §6 coverage matrix.
class FaultDictionary {
public:
    /// Builds the dictionary of a word test with one engine trace sweep.
    static FaultDictionary build(
        const march::MarchTest& test,
        const std::vector<word::Background>& backgrounds,
        const std::vector<fault::FaultKind>& kinds,
        const word::WordRunOptions& opts = {});

    /// Builds the dictionary of a bit test: the word build at width 1
    /// under the solid background. It renders signatures in cell form.
    static FaultDictionary build(const march::MarchTest& test,
                                 const std::vector<fault::FaultKind>& kinds,
                                 const sim::RunOptions& opts = {});

    [[nodiscard]] const std::vector<DictionaryEntry>& entries() const {
        return entries_;
    }

    /// Total instances considered / detected (non-empty signature).
    [[nodiscard]] int instance_count() const { return instance_count_; }
    [[nodiscard]] int detected_count() const { return detected_count_; }

    /// Instances whose signature is unique — fully diagnosed by the test.
    [[nodiscard]] int distinguished_count() const;

    /// distinguished / detected; 0 when nothing is detected. The
    /// diagnostic-resolution metric of [6].
    [[nodiscard]] double resolution() const;

    /// All instances compatible with an observed signature (empty when the
    /// signature is unknown to the dictionary). O(1): hash lookup of the
    /// rendered signature (the rendering is an injective encoding of the
    /// observation list, so string equality ⇔ signature equality).
    [[nodiscard]] std::vector<fault::FaultInstance> diagnose(
        const Signature& observed) const;

    /// The original linear bucket scan, kept as the reference path the
    /// hash lookup is differentially tested against.
    [[nodiscard]] std::vector<fault::FaultInstance> diagnose_linear(
        const Signature& observed) const;

    /// A signature as this dictionary prints it: cell form ("E1.0@c2
    /// E4.2@c5") for a bit-test build, Signature::str() otherwise.
    [[nodiscard]] std::string render(const Signature& signature) const;

    /// Table rendering: signature -> instance names.
    [[nodiscard]] std::string str() const;

private:
    std::vector<DictionaryEntry> entries_;  // sorted by Signature::str()
    /// Rendered signature -> index into entries_.
    std::unordered_map<std::string, std::size_t> index_;
    int instance_count_{0};
    int detected_count_{0};
    bool cell_form_{false};
};

}  // namespace mtg::diagnosis
