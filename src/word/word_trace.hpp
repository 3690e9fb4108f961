#pragma once

/// \file word_trace.hpp
/// Guaranteed failing reads / failing observations for word-oriented March
/// tests — the word-path counterpart of sim::RunTrace.
///
/// A word test executes the bit test once per data background, so the unit
/// of a failing *read* is the (background index, read site) pair, and the
/// unit of a failing *observation* is (background index, read site, word
/// address) plus the mask of bit positions that mismatched in that word
/// read. A trace entry is *guaranteed* when it fails under EVERY ⇕
/// expansion: reads/observations are set-intersected across expansions and
/// the per-word bit masks are AND-ed (an observation survives only with a
/// non-empty guaranteed bit mask).
///
/// Canonical ordering (asserted by tests/word_trace_test.cpp and relied on
/// by the diagnosis dictionary's signature comparison): failing reads
/// ascend by (background, element, op); failing observations by
/// (background, element, op, word). Failing bits live in the `bits` mask,
/// so the bit dimension never needs an ordering.
///
/// The scalar guaranteed_trace below runs one WordMemory per ⇕ expansion —
/// the cross-validation oracle. The production path is the packed
/// WordBatchRunner::run(), which extracts bit-identical traces for 63·W
/// faults per memory sweep (see word_kernels.hpp).

#include <cstdint>
#include <vector>

#include "march/march_test.hpp"
#include "sim/march_runner.hpp"
#include "word/background.hpp"
#include "word/word_march.hpp"

namespace mtg::word {

/// One guaranteed-failing word read: site `site` of the bit test observed
/// a definite mismatch (some word, some bit) during background
/// `background` in every ⇕ expansion.
struct WordReadSite {
    int background{0};
    sim::ReadSite site;

    friend bool operator==(const WordReadSite&, const WordReadSite&) = default;
};

/// One guaranteed-failing word observation: reading word `word` at site
/// `site` during background `background` mismatches at every bit position
/// of `bits` (LSB = bit 0) in every ⇕ expansion.
struct WordObservation {
    int background{0};
    sim::ReadSite site;
    int word{0};
    std::uint64_t bits{0};

    friend bool operator==(const WordObservation&,
                           const WordObservation&) = default;
};

/// Guaranteed trace of one bit fault under a word test. `detected` is the
/// word::detects verdict (every expansion mismatches *somewhere*) — it can
/// be true with empty trace vectors when different expansions fail
/// different reads.
struct WordRunTrace {
    bool detected{false};
    std::vector<WordReadSite> failing_reads;
    std::vector<WordObservation> failing_observations;

    friend bool operator==(const WordRunTrace&, const WordRunTrace&) = default;
};

/// Full guaranteed trace via the scalar WordMemory, one run per ⇕
/// expansion — the oracle the packed word kernel is differenced against.
/// Its failing observations are the diagnosis dictionary's signature
/// material (diagnosis::signature_of).
[[nodiscard]] WordRunTrace guaranteed_trace(
    const march::MarchTest& test, const std::vector<Background>& backgrounds,
    const InjectedBitFault& fault, const WordRunOptions& opts = {});

}  // namespace mtg::word
