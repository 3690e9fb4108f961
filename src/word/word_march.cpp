#include "word/word_march.hpp"

#include <algorithm>

#include "march/expansion.hpp"
#include "util/contracts.hpp"
#include "word/word_trace.hpp"

namespace mtg::word {

using march::AddressOrder;
using march::MarchOp;
using march::MarchTest;
using march::OpKind;

bool valid_setup(const std::vector<Background>& backgrounds,
                 const WordRunOptions& opts) {
    return opts.words > 0 && opts.width >= 1 && opts.width <= 64 &&
           !backgrounds.empty() &&
           std::ranges::all_of(backgrounds, [&](const Background& b) {
               return b.width == opts.width;
           });
}

void BitView::assign(const sim::RunOptions& bit_opts,
                     std::span<const sim::InjectedFault> population) {
    opts = bit_view(bit_opts);
    faults.clear();
    faults.reserve(population.size());
    for (const sim::InjectedFault& fault : population)
        faults.push_back(bit_view(fault));
}

sim::RunTrace bit_trace(const WordRunTrace& trace) {
    sim::RunTrace out;
    out.detected = trace.detected;
    out.failing_reads.reserve(trace.failing_reads.size());
    for (const WordReadSite& read : trace.failing_reads) {
        MTG_EXPECTS(read.background == 0);
        out.failing_reads.push_back(read.site);
    }
    out.failing_observations.reserve(trace.failing_observations.size());
    for (const WordObservation& obs : trace.failing_observations) {
        MTG_EXPECTS(obs.background == 0 && obs.bits == 1);
        out.failing_observations.push_back({obs.site, obs.word});
    }
    return out;
}

std::vector<sim::RunTrace> bit_trace(std::span<const WordRunTrace> traces) {
    std::vector<sim::RunTrace> out;
    out.reserve(traces.size());
    for (const WordRunTrace& trace : traces) out.push_back(bit_trace(trace));
    return out;
}

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
    MTG_EXPECTS(valid_setup(backgrounds, opts));
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
    MTG_EXPECTS(valid_setup(backgrounds, opts));
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
