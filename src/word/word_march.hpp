#pragma once

/// \file word_march.hpp
/// Word-oriented March execution: a bit-oriented March test plus a data
/// background set defines a word test — the test is run once per
/// background b with w0/r0 meaning write/expect b and w1/r1 meaning
/// write/expect ~b.
///
/// run_once_detects/detects are the scalar oracle; population-level
/// questions (coverage of a kind's placement set, batched traces) are
/// engine::Engine queries (see engine/engine.hpp).

#include <span>
#include <vector>

#include "march/march_test.hpp"
#include "sim/march_runner.hpp"
#include "word/background.hpp"
#include "word/word_memory.hpp"

namespace mtg::word {

struct WordRunTrace;

/// Execution options.
struct WordRunOptions {
    int words{8};
    int width{8};
    int max_any_expansion{4};  ///< 2^k ⇕ expansions per background run
};

/// True when a word test can run on `opts`' memory under `backgrounds`:
/// at least one word of 1..64 bits and at least one background, each
/// exactly `opts.width` bits wide (Background::complement shifts by its
/// width). Every word query requires it.
[[nodiscard]] bool valid_setup(const std::vector<Background>& backgrounds,
                               const WordRunOptions& opts);

/// A bit test on n cells as a word test: n words of width 1, run under
/// word::solid_background(1).
[[nodiscard]] inline WordRunOptions bit_view(const sim::RunOptions& opts) {
    return {.words = opts.memory_size,
            .width = 1,
            .max_any_expansion = opts.max_any_expansion};
}

/// A bit fault in the width-1 word view: cell c is (word c, bit 0).
[[nodiscard]] inline InjectedBitFault bit_view(
    const sim::InjectedFault& fault) {
    return {fault.kind, {fault.cell_a, 0}, {fault.cell_b, 0}};
}

/// A bit query as a word query: its options, population and the solid
/// width-1 background, mapped by bit_view. The backends keep one view per
/// thread and refill it for every bit query.
struct BitView {
    /// Refills the view for this query in the buffers it already holds.
    void assign(const sim::RunOptions& bit_opts,
                std::span<const sim::InjectedFault> population);

    WordRunOptions opts;
    std::vector<Background> backgrounds = solid_background(1);
    std::vector<InjectedBitFault> faults;
};

/// A trace of the width-1 word view as a bit trace: background 0 is the
/// only background and every observation is bit 0 of its word, so the
/// word is the cell. Requires exactly that shape of `trace`.
[[nodiscard]] sim::RunTrace bit_trace(const WordRunTrace& trace);

/// bit_trace of each trace, in order.
[[nodiscard]] std::vector<sim::RunTrace> bit_trace(
    std::span<const WordRunTrace> traces);

/// Complexity of the expanded word test: per-word operations summed over
/// all backgrounds.
[[nodiscard]] int word_complexity(const march::MarchTest& test,
                                  const std::vector<Background>& backgrounds);

/// Runs the word test once (fixed ⇕ choices) against a fresh memory with
/// the fault injected; true when some read mismatches its expected word.
[[nodiscard]] bool run_once_detects(const march::MarchTest& test,
                                    const std::vector<Background>& backgrounds,
                                    const InjectedBitFault& fault,
                                    unsigned any_choices,
                                    const WordRunOptions& opts = {});

/// Guaranteed detection: every ⇕ expansion detects.
[[nodiscard]] bool detects(const march::MarchTest& test,
                           const std::vector<Background>& backgrounds,
                           const InjectedBitFault& fault,
                           const WordRunOptions& opts = {});

/// The concrete ⇕ resolutions evaluated by detects() and the batched word
/// runner: all 2^k choices when the test has k <= opts.max_any_expansion ⇕
/// elements, otherwise only the two uniform sweeps (the same capped scheme
/// as the bit-oriented runner).
[[nodiscard]] std::vector<unsigned> expansion_choices(
    const march::MarchTest& test, const WordRunOptions& opts = {});

/// Sanity: on a fault-free memory every read sees its expected word under
/// every background and ⇕ expansion.
[[nodiscard]] bool is_well_formed(const march::MarchTest& test,
                                  const std::vector<Background>& backgrounds,
                                  const WordRunOptions& opts = {});

}  // namespace mtg::word
