#include "word/word_march.hpp"

#include "march/expansion.hpp"

namespace mtg::word {

using march::AddressOrder;
using march::MarchOp;
using march::MarchTest;
using march::OpKind;

int word_complexity(const MarchTest& test,
                    const std::vector<Background>& backgrounds) {
    return test.complexity() * static_cast<int>(backgrounds.size());
}

namespace {

/// Runs the test under one background; returns true on any definite
/// mismatch, false otherwise; `well_formed` (when non-null) is cleared if a
/// read returns an unknown bit or a fault-free expectation would fail.
bool run_background(const MarchTest& test, const Background& background,
                    WordMemory& memory, unsigned any_choices) {
    const std::uint64_t b0 = background.bits;
    const std::uint64_t b1 = background.complement().bits;

    bool detected = false;
    int any_seen = 0;
    for (const auto& element : test.elements()) {
        bool desc = element.order == AddressOrder::Descending;
        if (element.order == AddressOrder::Any) {
            desc = march::any_descending(any_choices, any_seen);
            ++any_seen;
        }
        const int n = memory.words();
        for (int step = 0; step < n; ++step) {
            const int word = desc ? n - 1 - step : step;
            for (const MarchOp& op : element.ops) {
                switch (op.kind) {
                    case OpKind::Write:
                        memory.write(word, op.value ? b1 : b0);
                        break;
                    case OpKind::Wait:
                        memory.wait();
                        break;
                    case OpKind::Read: {
                        const std::uint64_t expected = op.value ? b1 : b0;
                        const std::vector<Trit> got = memory.read(word);
                        for (int bit = 0; bit < memory.width(); ++bit) {
                            const Trit t = got[static_cast<std::size_t>(bit)];
                            const int want =
                                static_cast<int>((expected >> bit) & 1u);
                            if (is_known(t) && trit_bit(t) != want)
                                detected = true;
                        }
                        break;
                    }
                }
            }
        }
    }
    return detected;
}

}  // namespace

bool run_once_detects(const MarchTest& test,
                      const std::vector<Background>& backgrounds,
                      const InjectedBitFault& fault, unsigned any_choices,
                      const WordRunOptions& opts) {
    WordMemory memory(opts.words, opts.width);
    memory.inject(fault);
    bool detected = false;
    for (const Background& background : backgrounds)
        detected = run_background(test, background, memory, any_choices) ||
                   detected;
    return detected;
}

std::vector<unsigned> expansion_choices(const MarchTest& test,
                                        const WordRunOptions& opts) {
    return march::expansion_choices(test, opts.max_any_expansion);
}

bool detects(const MarchTest& test, const std::vector<Background>& backgrounds,
             const InjectedBitFault& fault, const WordRunOptions& opts) {
    for (unsigned choice : expansion_choices(test, opts)) {
        if (!run_once_detects(test, backgrounds, fault, choice, opts))
            return false;
    }
    return true;
}

bool is_well_formed(const MarchTest& test,
                    const std::vector<Background>& backgrounds,
                    const WordRunOptions& opts) {
    for (unsigned choice : expansion_choices(test, opts)) {
        WordMemory memory(opts.words, opts.width);
        // A fault-free run must produce no mismatch and no unknown read
        // after initialisation; reuse run_background and additionally
        // demand zero detections.
        for (const Background& background : backgrounds) {
            if (run_background(test, background, memory, choice)) return false;
        }
    }
    return true;
}

}  // namespace mtg::word
